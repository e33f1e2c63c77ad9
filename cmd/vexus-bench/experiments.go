package main

import (
	"fmt"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/greedy"
	"vexus/internal/groups"
	"vexus/internal/index"
	"vexus/internal/mining"
	"vexus/internal/mining/lcm"
	"vexus/internal/rng"
	"vexus/internal/simulate"
)

// workersFlag is the -workers count used by every parallel mining or
// simulation path below.
var workersFlag int

// buildAuthors builds the standard DB-AUTHORS evaluation engine.
func buildAuthors(seed uint64, numAuthors int, minSupportFrac float64) (*core.Engine, error) {
	d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: numAuthors, Seed: seed})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.DBAuthorsEncodeOptions()
	cfg.MinSupportFrac = minSupportFrac
	return core.Build(d, cfg)
}

// ---------------------------------------------------------------------------
// E1 — greedy time limit vs. quality (§II-B: 100 ms → ≈90% diversity,
// ≈85% coverage).
func runE1(seed uint64, _ string) error {
	header("E1: greedy time limit vs quality",
		"100 ms budget reaches ≈90% of reference diversity and ≈85% of reference coverage")

	eng, err := buildAuthors(seed, 2000, 0.015)
	if err != nil {
		return err
	}
	opt := greedy.New(eng.Space, eng.Index)

	// Focal groups: a spread of sizes.
	ids := make([]int, eng.Space.Len())
	for i := range ids {
		ids[i] = i
	}
	eng.Space.SortBySize(ids)
	focals := []int{ids[0], ids[len(ids)/8], ids[len(ids)/4], ids[len(ids)/2], ids[3*len(ids)/4]}

	base := greedy.DefaultConfig()
	base.CandidatePool = 2048
	base.FeedbackWeight = 0

	// Reference: a long-budget run per focal group.
	refCov := make(map[int]float64)
	refDiv := make(map[int]float64)
	for _, f := range focals {
		cfg := base
		cfg.TimeLimit = 3 * time.Second
		sel, err := opt.SelectNext(eng.Space.Group(f), nil, cfg)
		if err != nil {
			return err
		}
		refCov[f] = sel.Coverage
		refDiv[f] = sel.Diversity
	}

	fmt.Printf("%-10s %12s %12s %12s\n", "budget", "diversity%", "coverage%", "mean ms")
	for _, budget := range []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond, time.Second,
	} {
		var sumDiv, sumCov, sumMS float64
		for _, f := range focals {
			cfg := base
			cfg.TimeLimit = budget
			sel, err := opt.SelectNext(eng.Space.Group(f), nil, cfg)
			if err != nil {
				return err
			}
			if refDiv[f] > 0 {
				sumDiv += sel.Diversity / refDiv[f]
			} else {
				sumDiv++
			}
			if refCov[f] > 0 {
				sumCov += sel.Coverage / refCov[f]
			} else {
				sumCov++
			}
			sumMS += float64(sel.Elapsed.Microseconds()) / 1000
		}
		n := float64(len(focals))
		fmt.Printf("%-10v %11.1f%% %11.1f%% %12.1f\n",
			budget, 100*sumDiv/n, 100*sumCov/n, sumMS/n)
	}
	return nil
}

// ---------------------------------------------------------------------------
// E2 — index materialization fraction (§II-A: 10% is adequate).
func runE2(seed uint64, _ string) error {
	header("E2: inverted-index materialization",
		"materializing 10% of each inverted list is adequate (full quality, ~10% memory)")

	eng, err := buildAuthors(seed, 1200, 0.02)
	if err != nil {
		return err
	}
	full, err := index.BuildParallel(eng.Space, 1.0, 0)
	if err != nil {
		return err
	}
	fullMem := full.MemoryBytes()

	// Focal groups for the downstream-quality probe.
	ids := make([]int, eng.Space.Len())
	for i := range ids {
		ids[i] = i
	}
	eng.Space.SortBySize(ids)
	focals := []int{ids[0], ids[len(ids)/4], ids[len(ids)/2]}

	gcfg := greedy.DefaultConfig()
	gcfg.TimeLimit = 50 * time.Millisecond
	gcfg.FeedbackWeight = 0

	// Reference objective with the full index.
	refObj := map[int]float64{}
	refOpt := greedy.New(eng.Space, full)
	for _, f := range focals {
		sel, err := refOpt.SelectNext(eng.Space.Group(f), nil, gcfg)
		if err != nil {
			return err
		}
		refObj[f] = sel.Objective
	}

	fmt.Printf("%-10s %10s %14s %12s %16s %14s\n",
		"fraction", "prefix", "memory (MB)", "% of full", "lookup@512 ns", "objective %")
	for _, frac := range []float64{0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 1.00} {
		ix, err := index.BuildParallel(eng.Space, frac, 0)
		if err != nil {
			return err
		}
		ix.DisableFallback = true // expose what the prefix alone delivers
		mem := ix.MemoryBytes()

		// Materialized-lookup latency (the O(1) interaction path).
		t0 := time.Now()
		probes := 0
		for gid := 0; gid < eng.Space.Len(); gid += 7 {
			_ = ix.Neighbors(gid, 512)
			probes++
		}
		lookupNS := float64(time.Since(t0).Nanoseconds()) / float64(probes)

		// Downstream greedy quality using only the prefix.
		opt := greedy.New(eng.Space, ix)
		sumObj := 0.0
		for _, f := range focals {
			sel, err := opt.SelectNext(eng.Space.Group(f), nil, gcfg)
			if err != nil {
				return err
			}
			if refObj[f] > 0 {
				sumObj += sel.Objective / refObj[f]
			} else {
				sumObj++
			}
		}
		fmt.Printf("%-10.2f %10d %14.2f %11.1f%% %16.0f %13.1f%%\n",
			frac, ix.MaterializedLen(focals[0]),
			float64(mem)/(1<<20), 100*float64(mem)/float64(fullMem),
			lookupNS, 100*sumObj/float64(len(focals)))
	}
	return nil
}

// ---------------------------------------------------------------------------
// E3 — the exponential group space (§I: 4 attributes × 5 values ≈ 10^6
// possible groups) vs. what closed frequent mining retains.
func runE3(seed uint64, _ string) error {
	header("E3: group-space explosion vs closed frequent groups",
		"possible groups grow exponentially (~10^6 at 4 attrs × 5 values); mining tames them")

	fmt.Printf("%-8s %-8s %14s %14s %14s\n",
		"attrs", "values", "possible", "closed@1%", "closed@5%")
	r := rng.New(seed)
	for _, a := range []int{2, 3, 4, 5, 6, 8} {
		for _, v := range []int{3, 5, 7} {
			if a >= 6 && v != 5 {
				continue // headline rows only: the §I example crosses 10^6 once action attributes join
			}
			// Synthetic users over a×v uniform attributes.
			users := 2000
			vocabTx := randomDemographics(r.Split(uint64(a*100+v)), users, a, v)
			possible := pow(v+1, a) - 1
			c1, err := countClosed(vocabTx, users/100)
			if err != nil {
				return err
			}
			c5, err := countClosed(vocabTx, users/20)
			if err != nil {
				return err
			}
			fmt.Printf("%-8d %-8d %14d %14d %14d\n", a, v, possible, c1, c5)
		}
	}
	return nil
}

// randomDemographics builds transactions where each of `users` users
// carries one uniform value per attribute — the §I thought experiment
// ("with only four demographic attributes and five values for each").
func randomDemographics(r *rng.RNG, users, attrs, values int) *mining.Transactions {
	vocab := groups.NewVocab()
	ids := make([][]groups.TermID, attrs)
	for a := 0; a < attrs; a++ {
		ids[a] = make([]groups.TermID, values)
		for v := 0; v < values; v++ {
			ids[a][v] = vocab.Intern(fmt.Sprintf("a%d", a), fmt.Sprintf("v%d", v))
		}
	}
	perUser := make([][]groups.TermID, users)
	for u := range perUser {
		terms := make([]groups.TermID, attrs)
		for a := 0; a < attrs; a++ {
			terms[a] = ids[a][r.Intn(values)]
		}
		perUser[u] = terms
	}
	return mining.NewTransactions(vocab, perUser)
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

func countClosed(tx *mining.Transactions, minSup int) (int, error) {
	if minSup < 1 {
		minSup = 1
	}
	gs, err := lcm.New(mining.Options{MinSupport: minSup, MaxGroups: 2_000_000}).
		MineParallel(tx, workersFlag)
	if err != nil {
		return 0, err
	}
	return len(gs), nil
}

// ---------------------------------------------------------------------------
// E4 — expert-set formation (§III Scenario 1: committees of major
// conferences formed in < 10 iterations on average).
func runE4(seed uint64, _ string) error {
	header("E4: expert-set formation (MT)",
		"PC chairs form SIGMOD/VLDB/CIKM-like committees in < 10 iterations on average")

	eng, err := buildAuthors(seed, 2000, 0.02)
	if err != nil {
		return err
	}
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 20 * time.Millisecond // iterations, not wall time, are measured

	fmt.Printf("%-10s %10s %12s %12s\n", "venue", "success%", "iterations", "collected")
	totalIter, venues := 0.0, 0
	for _, venue := range []string{"SIGMOD", "VLDB", "CIKM"} {
		target := simulate.CommitteeTarget(eng, venue, 2, 60)
		quota := 30
		if target.Count() < quota {
			quota = target.Count()
		}
		task := simulate.MTTask{
			Target: target, Quota: quota,
			MaxIterations: 20, MaxInspectPerStep: 8,
		}
		res := simulate.RunMTBatchParallel(eng, cfg, task, simulate.NoisyPolicy(0.1), 20, seed, workersFlag)
		fmt.Printf("%-10s %9.0f%% %12.1f %12.1f\n",
			venue, res.SuccessRate*100, res.MeanIterations, res.MeanCollected)
		totalIter += res.MeanIterations
		venues++
	}
	fmt.Printf("\nmean iterations across venues: %.1f (paper: < 10)\n", totalIter/float64(venues))
	return nil
}

// ---------------------------------------------------------------------------
// E5 — discussion groups (§III Scenario 2: 80% satisfaction exploring
// rating data via groups, vs individuals).
func runE5(seed uint64, _ string) error {
	header("E5: discussion groups (ST)",
		"80% satisfaction with group-based exploration of rating data vs individual browsing")

	d, err := datagen.BookCrossing(datagen.SmallScale(seed))
	if err != nil {
		return err
	}
	pcfg := core.DefaultPipelineConfig()
	pcfg.Encode = datagen.BookCrossingEncodeOptions()
	pcfg.MinSupportFrac = 0.02
	eng, err := core.Build(d, pcfg)
	if err != nil {
		return err
	}

	// One task per genre: the seeker's compass is the genre community
	// (all lovers of the genre); she is satisfied by any club-sized
	// group whose members predominantly share her taste — the paper's
	// "group with whom she agrees".
	type genreTask struct {
		genre string
		task  simulate.STTask
	}
	var tasks []genreTask
	for _, genre := range datagen.Genres[:4] {
		want := eng.Space.Vocab.Lookup("favgenre", genre)
		if want < 0 {
			continue
		}
		compass := -1
		for _, g := range eng.Space.Groups() {
			if len(g.Desc) == 1 && g.Desc.Contains(want) {
				compass = g.ID
				break
			}
		}
		if compass < 0 {
			continue
		}
		lovers := eng.Space.Group(compass).Members
		agrees := func(gid int) bool {
			g := eng.Space.Group(gid)
			size := g.Size()
			if size < 20 {
				return false
			}
			return float64(g.Members.IntersectCount(lovers))/float64(size) >= 0.6
		}
		tasks = append(tasks, genreTask{genre, simulate.STTask{
			TargetGroup: compass, MaxIterations: 20, Satisfied: agrees,
		}})
	}

	fmt.Printf("%-28s %12s %12s\n", "condition", "satisfied%", "iterations")
	var groupSat, browseSat float64
	for _, gt := range tasks {
		gcfg := greedy.DefaultConfig()
		gcfg.TimeLimit = 20 * time.Millisecond
		g := simulate.RunSTBatchParallel(eng, gcfg, gt.task, simulate.NoisyPolicy(0.05), 20, seed, workersFlag)
		groupSat += g.SuccessRate

		// Baseline: to be convinced a club exists, the browsing seeker
		// needs quota agreeing readers from the same stream of profiles.
		target := eng.Space.Group(gt.task.TargetGroup).Members
		quota := 25
		b := simulate.RunBrowseBatchParallel(d.NumUsers(), target, quota, 7, 20, 20, seed, workersFlag)
		browseSat += b.SuccessRate
	}
	n := float64(len(tasks))
	fmt.Printf("%-28s %11.0f%% %12s\n", "group-based (VEXUS)", 100*groupSat/n, "—")
	fmt.Printf("%-28s %11.0f%% %12s\n", "individual browsing", 100*browseSat/n, "—")
	fmt.Printf("\n(%d hidden target groups; paper: 80%% group-based satisfaction)\n", len(tasks))
	return nil
}

// ---------------------------------------------------------------------------
// E6 — the k ≤ 7 perception bound (§II-A): larger k buys little.
func runE6(seed uint64, _ string) error {
	header("E6: displayed-group count k",
		"k ≤ 7 matches perception capacity; larger k does not speed up task completion")

	eng, err := buildAuthors(seed, 2000, 0.02)
	if err != nil {
		return err
	}
	target := simulate.CommitteeTarget(eng, "SIGMOD", 2, 60)
	quota := 30
	if target.Count() < quota {
		quota = target.Count()
	}
	task := simulate.MTTask{
		Target: target, Quota: quota,
		MaxIterations: 25, MaxInspectPerStep: 8,
	}

	fmt.Printf("%-6s %10s %12s %14s\n", "k", "success%", "iterations", "step ms")
	for _, k := range []int{3, 5, 7, 10, 15} {
		cfg := greedy.DefaultConfig()
		cfg.K = k
		cfg.TimeLimit = 20 * time.Millisecond
		res := simulate.RunMTBatchParallel(eng, cfg, task, simulate.NoisyPolicy(0.1), 12, seed, workersFlag)

		// Mean optimizer latency at this k.
		opt := greedy.New(eng.Space, eng.Index)
		sel, err := opt.SelectNext(eng.Space.Group(0), nil, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-6d %9.0f%% %12.1f %14.1f\n",
			k, res.SuccessRate*100, res.MeanIterations,
			float64(sel.Elapsed.Microseconds())/1000)
	}
	return nil
}

// ---------------------------------------------------------------------------
// E7 — interaction latency (§II-B: all interactions O(1) except the
// greedy step, which is the bottleneck).
func runE7(seed uint64, _ string) error {
	header("E7: interaction latency by dataset size",
		"non-greedy interactions are O(1)-flat; the greedy Explore step is the bottleneck")

	fmt.Printf("%-8s %12s %12s %12s %12s %12s\n",
		"users", "explore ms", "focus ms", "brush ms", "backtrack µs", "bookmark µs")
	for _, users := range []int{500, 1000, 2000, 4000} {
		eng, err := buildAuthors(seed, users, 0.03)
		if err != nil {
			return err
		}
		as := action.New(eng, greedy.DefaultConfig())
		if err := action.ApplyQuiet(as, action.Action{Op: action.Start}); err != nil {
			return err
		}
		// Each interaction is timed as one action through the
		// dispatcher every frontend uses.
		timed := func(a action.Action) (time.Duration, error) {
			t0 := time.Now()
			err := action.ApplyQuiet(as, a)
			return time.Since(t0), err
		}
		d, err := timed(action.Action{Op: action.Explore, Group: as.Sess.Shown()[0]})
		if err != nil {
			return err
		}
		exploreMS := float64(d.Microseconds()) / 1000

		if d, err = timed(action.Action{Op: action.Focus, Group: as.Sess.Focal(), Class: "gender"}); err != nil {
			return err
		}
		focusMS := float64(d.Microseconds()) / 1000

		if d, err = timed(action.Action{Op: action.Brush, Attr: "gender", Values: []string{"female"}}); err != nil {
			return err
		}
		brushMS := float64(d.Microseconds()) / 1000

		if d, err = timed(action.Action{Op: action.Backtrack, Step: 0}); err != nil {
			return err
		}
		backtrackUS := float64(d.Nanoseconds()) / 1000

		if d, err = timed(action.Action{Op: action.BookmarkGroup, Group: 0}); err != nil {
			return err
		}
		bookmarkUS := float64(d.Nanoseconds()) / 1000

		fmt.Printf("%-8d %12.1f %12.1f %12.2f %12.1f %12.1f\n",
			users, exploreMS, focusMS, brushMS, backtrackUS, bookmarkUS)
	}
	return nil
}

// ---------------------------------------------------------------------------
// E8 — feedback learning ablation (§II-B): personalization shortens
// tasks; unlearning redirects the trajectory.
func runE8(seed uint64, _ string) error {
	header("E8: feedback-learning ablation",
		"feedback biases subsequent steps toward the explorer's interest; unlearning redirects it")

	eng, err := buildAuthors(seed, 2000, 0.02)
	if err != nil {
		return err
	}

	// The probe: repeatedly click groups described by a chosen term
	// (simulating an explorer interested in it), then measure how many
	// of the displayed groups carry that term. Personalization should
	// raise the share as the feedback weight grows; with w = 0 the
	// display is driven by coverage+diversity alone.
	probe := eng.Space.Vocab.Lookup("topic", "databases")
	if probe < 0 {
		return fmt.Errorf("probe term not interned")
	}
	clickTarget := func(as *action.Session) int {
		shown := as.Sess.Shown()
		for _, gid := range shown {
			if eng.Space.Group(gid).Desc.Contains(probe) {
				return gid
			}
		}
		return shown[0]
	}
	// walk starts a session and clicks the probe four times.
	walk := func(cfg greedy.Config) (*action.Session, error) {
		as := action.New(eng, cfg)
		if err := action.ApplyQuiet(as, action.Action{Op: action.Start}); err != nil {
			return nil, err
		}
		for step := 0; step < 4; step++ {
			if err := action.ApplyQuiet(as, action.Action{Op: action.Explore, Group: clickTarget(as)}); err != nil {
				return nil, err
			}
		}
		return as, nil
	}
	fmt.Printf("%-24s %22s %22s\n", "condition", "probe-term share", "mean alignment")
	for _, cond := range []struct {
		name   string
		weight float64
	}{
		{"feedback off (w=0)", 0},
		{"feedback on (w=0.25)", 0.25},
		{"feedback strong (w=1)", 1.0},
	} {
		cfg := greedy.DefaultConfig()
		cfg.FeedbackWeight = cond.weight
		cfg.TimeLimit = 50 * time.Millisecond
		as, err := walk(cfg)
		if err != nil {
			return err
		}
		fb := as.Sess.Feedback()
		withTerm, n := 0, 0
		sumAlign := 0.0
		for _, gid := range as.Sess.Shown() {
			g := eng.Space.Group(gid)
			if g.Desc.Contains(probe) {
				withTerm++
			}
			sumAlign += fb.Alignment(g)
			n++
		}
		fmt.Printf("%-24s %20.0f%% %22.3f\n",
			cond.name, 100*float64(withTerm)/float64(n), sumAlign/float64(n))
	}

	// Unlearning: after the biased walk, delete the probe term and
	// re-explore — the display must move away from it.
	cfg := greedy.DefaultConfig()
	cfg.FeedbackWeight = 1
	cfg.TimeLimit = 50 * time.Millisecond
	as, err := walk(cfg)
	if err != nil {
		return err
	}
	before := as.Sess.Shown()
	if err := action.ApplyQuiet(as, action.Action{Op: action.Unlearn, Field: "topic", Value: "databases"}); err != nil {
		return err
	}
	if err := action.ApplyQuiet(as, action.Action{Op: action.Explore, Group: as.Sess.Focal()}); err != nil {
		return err
	}
	after := as.Sess.Shown()
	fmt.Printf("\nunlearning topic=databases changed %d of %d displayed groups\n",
		diffCount(before, after), len(after))
	return nil
}

func diffCount(a, b []int) int {
	in := map[int]bool{}
	for _, x := range a {
		in[x] = true
	}
	n := 0
	for _, x := range b {
		if !in[x] {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// E9 — offline pipeline at BookCrossing scale (§I: 1M ratings,
// 278,858 users, 271,379 books).
func runE9(seed uint64, scale string) error {
	header("E9: offline pipeline scale",
		"the pipeline handles BOOKCROSSING (1M ratings, 278,858 users, 271,379 books)")

	cfg := datagen.SmallScale(seed)
	if scale == "paper" {
		cfg = datagen.PaperScale(seed)
	}
	t0 := time.Now()
	d, err := datagen.BookCrossing(cfg)
	if err != nil {
		return err
	}
	genTime := time.Since(t0)

	pcfg := core.DefaultPipelineConfig()
	pcfg.Encode = datagen.BookCrossingEncodeOptions()
	pcfg.MinSupportFrac = 0.02
	t0 = time.Now()
	eng, err := core.Build(d, pcfg)
	if err != nil {
		return err
	}
	buildTime := time.Since(t0)

	st := eng.Space.ComputeStats()
	fmt.Printf("scale: %d users, %d books, %d ratings (generate %v)\n",
		d.NumUsers(), d.NumItems(), d.NumActions(), genTime.Round(time.Millisecond))
	fmt.Printf("encode: %v   mine: %v   total: %v\n",
		eng.Timings.Encode.Round(time.Millisecond),
		eng.Timings.Mine.Round(time.Millisecond),
		buildTime.Round(time.Millisecond))
	fmt.Printf("groups: %d (mean size %.1f, coverage %.2f)\n",
		st.NumGroups, st.MeanSize, st.Coverage)

	// One interactive step at this scale (the P3 check).
	as := action.New(eng, greedy.DefaultConfig())
	if err := action.ApplyQuiet(as, action.Action{Op: action.Start}); err != nil {
		return err
	}
	t0 = time.Now()
	res, err := action.Apply(as, action.Action{Op: action.Explore, Group: as.Sess.Shown()[0]})
	if err != nil {
		return err
	}
	fmt.Printf("one Explore step: %v (coverage %.2f, diversity %.2f)\n",
		time.Since(t0).Round(time.Millisecond), res.Metrics.Coverage, res.Metrics.Diversity)
	return nil
}

// ---------------------------------------------------------------------------
// F1 — the architecture diagram of Fig. 1, as the module inventory.
func runF1(_ uint64, _ string) error {
	header("F1: architecture (Fig. 1)", "ETL → group discovery → index generation → exploration modules")
	fmt.Print(`offline:
  internal/etl          ETL (CSV import, cleaning, schema inference)
  internal/dataset      user database [user, item, value] + demographics
  internal/mining       transaction encoding, mining bounds
  internal/mining/lcm      LCM closed frequent itemsets   (every engine)
  internal/mining/stream   lossy-counting stream miner     (ingest preview)
  internal/groups       user-group space + overlap graph G
  internal/index        per-group inverted similarity index (exact, on demand)
online (internal/action.Session, written only by action.Apply):
  GROUPVIZ  internal/greedy + internal/viz   k diverse+covering groups, force layout
  CONTEXT   internal/feedback                normalized profile, unlearn
  STATS     internal/crossfilter + internal/lda   coordinated histograms, 2D focus view
  HISTORY   action.Backtrack                 navigation trail
  MEMO      action.Memo                      bookmarked groups/users
  SAVE      internal/action                  action-log trail (save v2, replay)
`)
	return nil
}
