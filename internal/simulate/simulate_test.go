package simulate

import (
	"sync"
	"testing"
	"time"

	"vexus/internal/action"
	"vexus/internal/bitset"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/greedy"
	"vexus/internal/rng"
)

var (
	engOnce sync.Once
	engVal  *core.Engine
	engErr  error
)

// buildEngine builds one shared read-only engine; sessions are cheap
// and per-test, the engine is immutable.
func buildEngine(t testing.TB) *core.Engine {
	t.Helper()
	engOnce.Do(func() {
		var d *dataset.Dataset
		d, engErr = datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 400, Seed: 11})
		if engErr != nil {
			return
		}
		cfg := core.DefaultPipelineConfig()
		cfg.MinSupportFrac = 0.03
		engVal, engErr = core.Build(d, cfg)
	})
	if engErr != nil {
		t.Fatal(engErr)
	}
	return engVal
}

func fastCfg() greedy.Config {
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 5 * time.Millisecond
	return cfg
}

func TestPolicyChoose(t *testing.T) {
	r := rng.New(1)
	shown := []int{10, 20, 30}
	score := func(gid int) float64 { return float64(gid) }
	if got := GreedyPolicy().choose(r, shown, score); got != 30 {
		t.Fatalf("greedy chose %d", got)
	}
	if got := GreedyPolicy().choose(r, nil, score); got != -1 {
		t.Fatal("empty shown should return -1")
	}
	// Random policy hits all options over many draws.
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[NoisyPolicy(1).choose(r, shown, score)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("random policy coverage: %v", seen)
	}
}

func TestRunMTSucceedsOnEasyTask(t *testing.T) {
	eng := buildEngine(t)
	// Target: members of the largest group — trivially reachable.
	ids := make([]int, eng.Space.Len())
	for i := range ids {
		ids[i] = i
	}
	eng.Space.SortBySize(ids)
	target := eng.Space.Group(ids[0]).Members.Clone()

	as := action.New(eng, fastCfg())
	res := RunMT(as, MTTask{
		Target:        target,
		Quota:         target.Count() / 2,
		MaxIterations: 15,
	}, GreedyPolicy(), rng.New(5))
	if !res.Success {
		t.Fatalf("easy MT task failed: %+v", res)
	}
	if res.Iterations < 1 || res.Iterations > 15 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	if len(res.CollectedTrace) != res.Iterations {
		t.Fatalf("trace length %d != iterations %d", len(res.CollectedTrace), res.Iterations)
	}
	// Collection is monotone.
	for i := 1; i < len(res.CollectedTrace); i++ {
		if res.CollectedTrace[i] < res.CollectedTrace[i-1] {
			t.Fatal("collection not monotone")
		}
	}
	// Memo matches the collected count.
	if got := len(as.Sess.Memo().Users()); got != res.Collected {
		t.Fatalf("memo has %d users, result says %d", got, res.Collected)
	}
}

func TestRunMTRespectsBudget(t *testing.T) {
	eng := buildEngine(t)
	// Impossible quota: more users than the target holds.
	target := bitset.New(eng.Data.NumUsers())
	target.Add(0)
	res := RunMT(action.New(eng, fastCfg()), MTTask{
		Target:        target,
		Quota:         50,
		MaxIterations: 4,
	}, GreedyPolicy(), rng.New(7))
	if res.Success {
		t.Fatal("impossible task succeeded")
	}
	if res.Iterations > 4 {
		t.Fatalf("budget exceeded: %d", res.Iterations)
	}
}

func TestGreedyBeatsRandomMT(t *testing.T) {
	eng := buildEngine(t)
	target := CommitteeTarget(eng, "SIGMOD", 2, 40)
	if target.Count() < 10 {
		t.Skip("target too small on this seed")
	}
	task := MTTask{Target: target, Quota: target.Count() / 3, MaxIterations: 12}
	g := RunMTBatch(eng, fastCfg(), task, GreedyPolicy(), 8, 100)
	r := RunMTBatch(eng, fastCfg(), task, NoisyPolicy(1), 8, 100)
	if g.MeanCollected <= r.MeanCollected {
		t.Fatalf("greedy (%v collected) should beat random (%v)",
			g.MeanCollected, r.MeanCollected)
	}
}

func TestRunSTReachesTarget(t *testing.T) {
	eng := buildEngine(t)
	// Target: a mid-sized group (not shown initially, so the explorer
	// has to navigate).
	ids := make([]int, eng.Space.Len())
	for i := range ids {
		ids[i] = i
	}
	eng.Space.SortBySize(ids)
	target := ids[len(ids)/3]
	res := RunST(action.New(eng, fastCfg()), STTask{
		TargetGroup:   target,
		MinSimilarity: 0.8,
		MaxIterations: 20,
	}, GreedyPolicy(), rng.New(9))
	if res.BestSimilarity <= 0 {
		t.Fatalf("no progress toward target: %+v", res)
	}
	if res.Iterations < 1 || res.Iterations > 20 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestBrowseIndividualsBaseline(t *testing.T) {
	target := bitset.New(1000)
	for u := 0; u < 50; u++ { // 5% of the universe
		target.Add(u)
	}
	// Needing 20 hits at 7 samples/iter over 15 iterations (105
	// samples, ~5 expected hits) must usually fail…
	hard := RunBrowseBatch(1000, target, 20, 7, 15, 50, 3)
	if hard.SuccessRate > 0.2 {
		t.Fatalf("baseline too strong: %v", hard.SuccessRate)
	}
	// …while an easy quota usually succeeds.
	easy := RunBrowseBatch(1000, target, 1, 7, 15, 50, 3)
	if easy.SuccessRate < 0.8 {
		t.Fatalf("baseline too weak on easy task: %v", easy.SuccessRate)
	}
}

func TestCommitteeTarget(t *testing.T) {
	eng := buildEngine(t)
	target := CommitteeTarget(eng, "SIGMOD", 1, 30)
	if target.Count() == 0 || target.Count() > 30 {
		t.Fatalf("target size = %d", target.Count())
	}
	// Every member actually published in SIGMOD.
	item := eng.Data.ItemIndex("SIGMOD")
	target.Range(func(u int) bool {
		found := false
		for _, ai := range eng.Data.UserActions(u) {
			if eng.Data.Actions[ai].Item == item {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("user %d never published in SIGMOD", u)
		}
		return true
	})
	// Unknown venue: empty target, no panic.
	if got := CommitteeTarget(eng, "NOPE", 1, 10); got.Count() != 0 {
		t.Fatal("unknown venue produced a target")
	}
}

func TestBatchesAreDeterministic(t *testing.T) {
	eng := buildEngine(t)
	target := CommitteeTarget(eng, "VLDB", 1, 30)
	task := MTTask{Target: target, Quota: 5, MaxIterations: 8}
	cfg := fastCfg()
	cfg.TimeLimit = 0 // deterministic greedy only
	a := RunMTBatch(eng, cfg, task, GreedyPolicy(), 5, 77)
	b := RunMTBatch(eng, cfg, task, GreedyPolicy(), 5, 77)
	if a != b {
		t.Fatalf("batch not deterministic: %+v vs %+v", a, b)
	}
}

func TestMTInspectionCap(t *testing.T) {
	eng := buildEngine(t)
	ids := make([]int, eng.Space.Len())
	for i := range ids {
		ids[i] = i
	}
	eng.Space.SortBySize(ids)
	target := eng.Space.Group(ids[0]).Members.Clone()
	res := RunMT(action.New(eng, fastCfg()), MTTask{
		Target:            target,
		Quota:             target.Count(),
		MaxIterations:     3,
		MaxInspectPerStep: 5,
	}, GreedyPolicy(), rng.New(21))
	// At most 5 bookmarks per step.
	prev := 0
	for _, c := range res.CollectedTrace {
		if c-prev > 5 {
			t.Fatalf("collected %d in one step, cap is 5", c-prev)
		}
		prev = c
	}
	if res.Collected > 15 {
		t.Fatalf("collected %d in 3 steps with cap 5", res.Collected)
	}
}

// TestCampaignEmitsReplayableActionLog: a simulated run's trail,
// replayed through the same action dispatcher on a fresh session, must
// reproduce the exact end state — simulated and served traffic are one
// code path.
func TestCampaignEmitsReplayableActionLog(t *testing.T) {
	eng := buildEngine(t)
	cfg := fastCfg()
	cfg.TimeLimit = 0 // deterministic selection for the replay

	target := CommitteeTarget(eng, "SIGMOD", 2, 30)
	if target.Count() == 0 {
		t.Fatal("no committee target in fixture")
	}
	task := MTTask{Target: target, Quota: 8, MaxIterations: 6}
	as := action.New(eng, cfg)
	out := RunMT(as, task, GreedyPolicy(), rng.New(5))
	sess := as.Sess
	if len(out.Actions) == 0 {
		t.Fatal("campaign emitted no action log")
	}
	if out.Actions[0].Op != action.Start {
		t.Fatalf("log starts with %q, want start", out.Actions[0].Op)
	}

	replayed := action.New(eng, cfg)
	if _, err := action.ApplyAll(replayed, out.Actions); err != nil {
		t.Fatalf("replaying campaign log: %v", err)
	}
	if got, want := replayed.Sess.Focal(), sess.Focal(); got != want {
		t.Fatalf("replay focal %d, want %d", got, want)
	}
	if got, want := replayed.Sess.Shown(), sess.Shown(); len(got) != len(want) {
		t.Fatalf("replay shown %v, want %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("replay shown %v, want %v", got, want)
			}
		}
	}
	gotMemo, wantMemo := replayed.Sess.Memo().Users(), sess.Memo().Users()
	if len(gotMemo) != len(wantMemo) {
		t.Fatalf("replay memo %d users, want %d", len(gotMemo), len(wantMemo))
	}
	for i := range gotMemo {
		if gotMemo[i] != wantMemo[i] {
			t.Fatalf("replay memo %v, want %v", gotMemo, wantMemo)
		}
	}
	if got, want := len(replayed.Sess.History()), len(sess.History()); got != want {
		t.Fatalf("replay history %d, want %d", got, want)
	}
}

// TestSTCampaignLogsBookmark: the single-target run logs its final
// bookmark through the action layer.
func TestSTCampaignLogsBookmark(t *testing.T) {
	eng := buildEngine(t)
	cfg := fastCfg()
	cfg.TimeLimit = 0
	task := STTask{TargetGroup: 0, MinSimilarity: 0, MaxIterations: 4}
	out := RunST(action.New(eng, cfg), task, GreedyPolicy(), rng.New(3))
	if !out.Success {
		t.Fatal("trivial single-target task failed")
	}
	if len(out.Actions) == 0 {
		t.Fatal("run emitted no actions")
	}
	last := out.Actions[len(out.Actions)-1]
	if last.Op != action.BookmarkGroup {
		t.Fatalf("last action %q, want bookmarkGroup", last.Op)
	}
}
