// Benchmarks regenerating the paper's quantitative claims, one per
// experiment (E1–E9) plus the design-decision ablations.
// cmd/vexus-bench prints the same measurements as formatted tables;
// these testing.B versions give ns/op + allocs and run under
// `go test -bench=. -benchmem`.
package vexus_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/feedback"
	"vexus/internal/greedy"
	"vexus/internal/groups"
	"vexus/internal/index"
	"vexus/internal/mining"
	"vexus/internal/mining/lcm"
	"vexus/internal/rng"
	"vexus/internal/simulate"
)

// ---------------------------------------------------------------------------
// Shared fixtures (built once; engines are immutable after Build).

var (
	fixOnce sync.Once
	fixEng  *core.Engine // DB-AUTHORS, 1500 users
	fixTx   *mining.Transactions
	fixErr  error
)

func fixtures(b *testing.B) *core.Engine {
	b.Helper()
	fixOnce.Do(func() {
		var d *dataset.Dataset
		d, fixEng, fixErr = buildDBAuthors(1500)
		if fixErr != nil {
			return
		}
		fixTx, fixErr = mining.Encode(d, datagen.DBAuthorsEncodeOptions())
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fixEng
}

// buildDBAuthors builds the engine of an n-author DB-AUTHORS corpus at
// minsup 0.02, seed 42.
func buildDBAuthors(n int) (*dataset.Dataset, *core.Engine, error) {
	d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: n, Seed: 42})
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.DBAuthorsEncodeOptions()
	cfg.MinSupportFrac = 0.02
	eng, err := core.Build(d, cfg)
	return d, eng, err
}

var (
	browseOnce sync.Once
	browseEng  *core.Engine
	browseErr  error
)

// browseFixture is the corpus of the wall-clock benchmark's browse
// workload: DB-AUTHORS, 3,000 authors, minsup 0.02.
func browseFixture(b *testing.B) *core.Engine {
	b.Helper()
	browseOnce.Do(func() { _, browseEng, browseErr = buildDBAuthors(3000) })
	if browseErr != nil {
		b.Fatal(browseErr)
	}
	return browseEng
}

// ---------------------------------------------------------------------------
// E1 — greedy optimizer under different time limits.

func BenchmarkGreedyTimeLimit(b *testing.B) {
	eng := fixtures(b)
	opt := greedy.New(eng.Space, eng.Index)
	focal := eng.Space.Group(0)
	for _, budget := range []time.Duration{
		0, 5 * time.Millisecond, 25 * time.Millisecond, 100 * time.Millisecond,
	} {
		b.Run(budget.String(), func(b *testing.B) {
			cfg := greedy.DefaultConfig()
			cfg.TimeLimit = budget
			cfg.FeedbackWeight = 0
			var lastObj float64
			for i := 0; i < b.N; i++ {
				sel, err := opt.SelectNext(focal, nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				lastObj = sel.Objective
			}
			b.ReportMetric(lastObj, "objective")
		})
	}
}

// ---------------------------------------------------------------------------
// Exact neighbour lookup: the engine's index stores no lists, so every
// explore computes its focal group's list at the optimizer's pool size.

var sinkNeighbors []index.Neighbor

func BenchmarkNeighbors(b *testing.B) {
	eng := fixtures(b)
	pool := greedy.DefaultConfig().CandidatePool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNeighbors = eng.Index.Neighbors(i%eng.Space.Len(), pool)
	}
}

// ---------------------------------------------------------------------------
// One optimizer step of an explore: four fixed 10-click trails are
// replayed through sessions first (TimeLimit 0, 1 worker), recording
// each click's focal group and the feedback profile the session had
// accumulated by then; the timed loop runs SelectNext on those steps.
// authors=3000 is the browse workload's corpus, where the step is most
// of an explore's wall clock. The authors=… cases time construction
// only, as every explore does at TimeLimit 0; unbounded runs the
// authors=3000 steps with a 10 s budget, which local search never
// reaches, so it times search to convergence.

var sinkSelection greedy.Selection

func BenchmarkSelectNext(b *testing.B) {
	for _, c := range []struct {
		name   string
		engine func(*testing.B) *core.Engine
		limit  time.Duration
	}{
		{"authors=1500", fixtures, 0},
		{"authors=3000", browseFixture, 0},
		{"unbounded", browseFixture, 10 * time.Second},
	} {
		b.Run(c.name, func(b *testing.B) { benchSelectNext(b, c.engine(b), c.limit) })
	}
}

// browseStep is one recorded explore: its focal group and the profile
// the session had accumulated by then.
type browseStep struct {
	focal *groups.Group
	fb    *feedback.Vector
}

// stepConfig is the optimizer configuration the trails are replayed
// with: construction only.
func stepConfig() greedy.Config {
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 0
	return cfg
}

// trailClick is the group a trail clicks at the given step, picked
// from the display.
func trailClick(shown []int, trail, click int) int { return shown[(trail+click)%len(shown)] }

// recordSteps replays the four fixed 10-click trails and records each
// click's step.
func recordSteps(b *testing.B, eng *core.Engine) []browseStep {
	var steps []browseStep
	for trail := 0; trail < 4; trail++ {
		s := startedSession(b, eng, stepConfig())
		for click := 0; click < 10; click++ {
			gid := trailClick(s.Sess.Shown(), trail, click)
			mustApply(b, s, action.Action{Op: action.Explore, Group: gid})
			steps = append(steps, browseStep{eng.Space.Group(gid), s.Sess.Feedback()})
		}
	}
	return steps
}

// startedSession opens a session over eng and applies Start.
func startedSession(b *testing.B, eng *core.Engine, cfg greedy.Config) *action.Session {
	s := action.New(eng, cfg)
	mustApply(b, s, action.Action{Op: action.Start})
	return s
}

func mustApply(b *testing.B, s *action.Session, a action.Action) {
	if err := action.ApplyQuiet(s, a); err != nil {
		b.Fatal(err)
	}
}

func benchSelectNext(b *testing.B, eng *core.Engine, limit time.Duration) {
	steps := recordSteps(b, eng)
	opt := greedy.New(eng.Space, eng.Index)
	cfg := stepConfig()
	cfg.TimeLimit = limit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := steps[i%len(steps)]
		sel, err := opt.SelectNext(st.focal, st.fb, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkSelection = sel
	}
}

// ---------------------------------------------------------------------------
// Profile reads: what each action reads of the feedback profile, on the
// 40 browse steps BenchmarkSelectNext records (profiles of 1,478 to
// 2,874 users). top=8 is one CONTEXT render, which every diff makes
// twice; snapshot is an explore's history copy; topusers=128 is the
// optimizer pool's read. brush applies one brush through action.Apply,
// its diff included, with the profile of a 10-click trail.

var (
	sinkEntries []feedback.Entry
	sinkProfile *feedback.Vector
	sinkUsers   []feedback.UserMass
	sinkResult  action.Result
)

func BenchmarkProfile(b *testing.B) {
	eng := browseFixture(b)
	steps := recordSteps(b, eng)
	b.Run("top=8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkEntries = steps[i%len(steps)].fb.Top(action.ContextTop)
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkProfile = steps[i%len(steps)].fb.Snapshot()
		}
	})
	b.Run("topusers=128", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkUsers = steps[i%len(steps)].fb.TopUsers(128)
		}
	})
	b.Run("brush", func(b *testing.B) {
		s := action.New(eng, stepConfig())
		_, err := action.Apply(s, action.Action{Op: action.Start})
		if err != nil {
			b.Fatal(err)
		}
		shown := s.Sess.Shown()
		for click := 0; click < 10; click++ {
			if _, err = action.Apply(s, action.Action{Op: action.Explore, Group: trailClick(shown, 0, click)}); err != nil {
				b.Fatal(err)
			}
			shown = s.Sess.Shown()
		}
		if _, err := action.Apply(s, action.Action{Op: action.Focus, Group: shown[0]}); err != nil {
			b.Fatal(err)
		}
		brush := action.Action{Op: action.Brush}
	pick:
		for _, attr := range s.Focus.Attributes() {
			labels, counts, err := s.Focus.Histogram(attr)
			if err != nil {
				b.Fatal(err)
			}
			for i, c := range counts {
				if c > 0 {
					brush.Attr, brush.Values = attr, []string{labels[i]}
					break pick
				}
			}
		}
		if brush.Attr == "" {
			b.Fatal("focused group has no value to brush")
		}
		logged := len(s.Log)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Brushing is idempotent; trimming the log keeps it from
			// growing with b.N.
			if sinkResult, err = action.Apply(s, brush); err != nil {
				b.Fatal(err)
			}
			s.Log = s.Log[:logged]
		}
	})
}

// ---------------------------------------------------------------------------
// Parallel discovery: lcm.MineParallel fans the top-level PPC
// subtrees over the worker pool. Every worker count yields the exact
// sequential group list (the equivalence suite in internal/mining/lcm
// holds that); this benchmark measures wall-clock scaling, which tops
// out at the physical core count — on a 1-core runner all worker
// counts time alike.

func BenchmarkParallelLCM(b *testing.B) {
	fixtures(b)
	tx := fixTx
	opts := mining.Options{MinSupport: 20, MaxLen: 4}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				gs, err := lcm.New(opts).MineParallel(tx, workers)
				if err != nil {
					b.Fatal(err)
				}
				n = len(gs)
			}
			b.ReportMetric(float64(n), "groups")
		})
	}
}

// ---------------------------------------------------------------------------
// Parallel simulation: an E4-style MT campaign sharded over workers.
// Aggregates are bit-identical to the sequential batch at any count.

func BenchmarkParallelMTBatch(b *testing.B) {
	eng := fixtures(b)
	target := simulate.CommitteeTarget(eng, "SIGMOD", 2, 60)
	quota := 30
	if target.Count() < quota {
		quota = target.Count()
	}
	task := simulate.MTTask{
		Target: target, Quota: quota,
		MaxIterations: 12, MaxInspectPerStep: 8,
	}
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 0
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simulate.RunMTBatchParallel(eng, cfg, task,
					simulate.NoisyPolicy(0.1), 8, 42, workers)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E3 — closed-group mining as the term grid grows.

func BenchmarkGroupSpace(b *testing.B) {
	for _, cfg := range []struct{ attrs, values int }{
		{3, 5}, {4, 5}, {5, 5},
	} {
		b.Run(fmt.Sprintf("a%dv%d", cfg.attrs, cfg.values), func(b *testing.B) {
			r := rng.New(7)
			vocab := groups.NewVocab()
			ids := make([][]groups.TermID, cfg.attrs)
			for a := range ids {
				ids[a] = make([]groups.TermID, cfg.values)
				for v := range ids[a] {
					ids[a][v] = vocab.Intern(fmt.Sprintf("a%d", a), fmt.Sprintf("v%d", v))
				}
			}
			perUser := make([][]groups.TermID, 2000)
			for u := range perUser {
				terms := make([]groups.TermID, cfg.attrs)
				for a := 0; a < cfg.attrs; a++ {
					terms[a] = ids[a][r.Intn(cfg.values)]
				}
				perUser[u] = terms
			}
			tx := mining.NewTransactions(vocab, perUser)
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				gs, err := lcm.New(mining.Options{MinSupport: 20}).Mine(tx)
				if err != nil {
					b.Fatal(err)
				}
				n = len(gs)
			}
			b.ReportMetric(float64(n), "groups")
		})
	}
}

// ---------------------------------------------------------------------------
// E4 — one full committee-formation session.

func BenchmarkExpertSetFormation(b *testing.B) {
	eng := fixtures(b)
	target := simulate.CommitteeTarget(eng, "SIGMOD", 2, 60)
	quota := 30
	if target.Count() < quota {
		quota = target.Count()
	}
	task := simulate.MTTask{
		Target: target, Quota: quota,
		MaxIterations: 20, MaxInspectPerStep: 8,
	}
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 20 * time.Millisecond
	var iters float64
	for i := 0; i < b.N; i++ {
		res := simulate.RunMT(action.New(eng, cfg), task,
			simulate.GreedyPolicy(), rng.New(uint64(i)+1))
		iters = float64(res.Iterations)
	}
	b.ReportMetric(iters, "iterations")
}

// ---------------------------------------------------------------------------
// E5 — one discussion-group search session.

func BenchmarkDiscussionGroups(b *testing.B) {
	eng := fixtures(b)
	// Mid-sized group as the hidden target.
	ids := make([]int, eng.Space.Len())
	for i := range ids {
		ids[i] = i
	}
	eng.Space.SortBySize(ids)
	task := simulate.STTask{
		TargetGroup: ids[len(ids)/3], MinSimilarity: 0.6, MaxIterations: 15,
	}
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 20 * time.Millisecond
	var found float64
	for i := 0; i < b.N; i++ {
		res := simulate.RunST(action.New(eng, cfg), task,
			simulate.GreedyPolicy(), rng.New(uint64(i)+1))
		if res.Success {
			found++
		}
	}
	b.ReportMetric(found/float64(b.N), "successRate")
}

// ---------------------------------------------------------------------------
// E6 — optimizer latency as k grows.

func BenchmarkKSweep(b *testing.B) {
	eng := fixtures(b)
	opt := greedy.New(eng.Space, eng.Index)
	focal := eng.Space.Group(0)
	for _, k := range []int{3, 7, 15} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			cfg := greedy.DefaultConfig()
			cfg.K = k
			cfg.TimeLimit = 0 // pure construction cost
			for i := 0; i < b.N; i++ {
				if _, err := opt.SelectNext(focal, nil, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E7 — per-interaction latency.

func BenchmarkInteractionLatency(b *testing.B) {
	eng := fixtures(b)
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 10 * time.Millisecond

	b.Run("explore", func(b *testing.B) {
		s := startedSession(b, eng, cfg)
		explore := action.Action{Op: action.Explore, Group: s.Sess.Shown()[0]}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustApply(b, s, explore)
		}
	})
	b.Run("focus", func(b *testing.B) {
		s := startedSession(b, eng, cfg)
		focus := action.Action{Op: action.Focus, Group: s.Sess.Shown()[0], Class: "gender"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustApply(b, s, focus)
		}
	})
	b.Run("brush", func(b *testing.B) {
		s := startedSession(b, eng, cfg)
		mustApply(b, s, action.Action{Op: action.Focus, Group: s.Sess.Shown()[0], Class: "gender"})
		brush := action.Action{Op: action.Brush, Attr: "gender", Values: []string{"female"}}
		unbrush := action.Action{Op: action.Brush, Attr: "gender"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustApply(b, s, brush)
			mustApply(b, s, unbrush)
		}
	})
	b.Run("backtrack", func(b *testing.B) {
		s := startedSession(b, eng, cfg)
		mustApply(b, s, action.Action{Op: action.Explore, Group: s.Sess.Shown()[0]})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustApply(b, s, action.Action{Op: action.Backtrack, Step: 1})
		}
	})
	b.Run("bookmark", func(b *testing.B) {
		s := startedSession(b, eng, cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustApply(b, s, action.Action{Op: action.BookmarkGroup, Group: i % eng.Space.Len()})
		}
	})
}

// ---------------------------------------------------------------------------
// Opening the STATS module (crossfilter histograms + LDA projection) on
// the BookCrossing corpus of the wall-clock benchmark's focus workload:
// 3,000 users, minsup 0.01, 1 worker, vocabulary 123, classes from the
// first attribute (age). The groups cover the LDA fit, the PCA fallback
// of single-class groups through the n×n Gram matrix (n < d) and the
// d×d covariance (n ≥ d), and sizes from 30 to 1,038 members.

var (
	focusOnce sync.Once
	focusEng  *core.Engine
	focusErr  error
)

func focusFixture(b *testing.B) *core.Engine {
	b.Helper()
	focusOnce.Do(func() {
		d, err := datagen.BookCrossing(datagen.SmallScale(42))
		if err != nil {
			focusErr = err
			return
		}
		cfg := core.DefaultPipelineConfig()
		cfg.Encode = datagen.BookCrossingEncodeOptions()
		cfg.MinSupportFrac = 0.01
		cfg.Workers = 1
		focusEng, focusErr = core.Build(d, cfg)
	})
	if focusErr != nil {
		b.Fatal(focusErr)
	}
	return focusEng
}

func BenchmarkFocus(b *testing.B) {
	eng := focusFixture(b)
	for _, g := range []struct {
		id, size int
		method   string
	}{
		{2403, 30, "lda"},  // 4 age classes
		{2106, 128, "lda"}, // 5 age classes
		{1625, 936, "lda"}, // item:book000000=liked, 5 age classes
		{390, 93, "pca"},   // country=fr ∧ age=adult ∧ activity=inactive: Gram
		{1014, 619, "pca"}, // age=adult: covariance
		{0, 1038, "pca"},   // age=senior: covariance
	} {
		b.Run(fmt.Sprintf("%s/n=%d", g.method, g.size), func(b *testing.B) {
			var fv *core.FocusView
			var err error
			for i := 0; i < b.N; i++ {
				if fv, err = eng.Focus(g.id, ""); err != nil {
					b.Fatal(err)
				}
			}
			// The list must keep covering what it claims to.
			if len(fv.Members) != g.size || fv.Projection == nil || fv.Projection.Method != g.method {
				b.Fatalf("group %d: %d members, projection %+v; want %d members by %s",
					g.id, len(fv.Members), fv.Projection, g.size, g.method)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E8 — feedback ablation: selection cost and outcome with the
// personalization term on and off.

func BenchmarkFeedbackAblation(b *testing.B) {
	eng := fixtures(b)
	for _, cond := range []struct {
		name   string
		weight float64
	}{{"on", 0.25}, {"off", 0}} {
		b.Run(cond.name, func(b *testing.B) {
			cfg := greedy.DefaultConfig()
			cfg.TimeLimit = 10 * time.Millisecond
			cfg.FeedbackWeight = cond.weight
			s := startedSession(b, eng, cfg)
			explore := action.Action{Op: action.Explore, Group: s.Sess.Shown()[0]}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustApply(b, s, explore)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E9 — the offline pipeline end to end (small scale; -scale paper in
// cmd/vexus-bench covers the full 1M-rating run).

func BenchmarkOfflinePipeline(b *testing.B) {
	d, err := datagen.BookCrossing(datagen.SmallScale(42))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.BookCrossingEncodeOptions()
	cfg.MinSupportFrac = 0.02
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
