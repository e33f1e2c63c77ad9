package simulate

import (
	"testing"

	"vexus/internal/bitset"
	"vexus/internal/core"
	"vexus/internal/dataset"
	"vexus/internal/greedy"
	"vexus/internal/rng"
)

// TestRunMTBatchParallelEquivalence: the parallel MT campaign must
// reproduce the sequential aggregate exactly (float equality) for
// every worker count.
func TestRunMTBatchParallelEquivalence(t *testing.T) {
	eng := buildEngine(t)
	target := CommitteeTarget(eng, "SIGMOD", 1, 40)
	if target.Count() < 6 {
		t.Skip("target too small on this seed")
	}
	task := MTTask{Target: target, Quota: target.Count() / 2, MaxIterations: 10, MaxInspectPerStep: 6}
	cfg := fastCfg()
	cfg.TimeLimit = 0
	want := RunMTBatch(eng, cfg, task, NoisyPolicy(0.1), 12, 77)
	for _, workers := range []int{1, 2, 8} {
		got := RunMTBatchParallel(eng, cfg, task, NoisyPolicy(0.1), 12, 77, workers)
		if got != want {
			t.Fatalf("workers=%d: %+v != sequential %+v", workers, got, want)
		}
	}
}

// TestRunSTBatchParallelEquivalence: same for the ST campaign. The
// float MeanBestSim is summed in run order, so even rounding matches.
func TestRunSTBatchParallelEquivalence(t *testing.T) {
	eng := buildEngine(t)
	ids := make([]int, eng.Space.Len())
	for i := range ids {
		ids[i] = i
	}
	eng.Space.SortBySize(ids)
	task := STTask{TargetGroup: ids[len(ids)/3], MinSimilarity: 0.7, MaxIterations: 12}
	cfg := fastCfg()
	cfg.TimeLimit = 0
	want := RunSTBatch(eng, cfg, task, NoisyPolicy(0.05), 12, 123)
	for _, workers := range []int{1, 2, 8} {
		got := RunSTBatchParallel(eng, cfg, task, NoisyPolicy(0.05), 12, 123, workers)
		if got != want {
			t.Fatalf("workers=%d: %+v != sequential %+v", workers, got, want)
		}
	}
}

// TestRunBrowseBatchParallelEquivalence: the engine-free baseline
// shards the same way.
func TestRunBrowseBatchParallelEquivalence(t *testing.T) {
	target := bitset.New(800)
	for u := 0; u < 60; u++ {
		target.Add(u * 13 % 800)
	}
	want := RunBrowseBatch(800, target, 8, 7, 15, 40, 9)
	for _, workers := range []int{1, 2, 8} {
		got := RunBrowseBatchParallel(800, target, 8, 7, 15, 40, 9, workers)
		if got != want {
			t.Fatalf("workers=%d: %+v != sequential %+v", workers, got, want)
		}
	}
}

// TestCommitteeTargetPinned pins the selected target set on a
// hand-built fixture: selection is by publication count descending,
// user id ascending on ties, cut at `size`.
func TestCommitteeTargetPinned(t *testing.T) {
	s := dataset.MustSchema(
		dataset.Attribute{Name: "gender", Kind: dataset.Categorical, Values: []string{"f", "m"}},
	)
	b := dataset.NewBuilder(s)
	pubs := []int{3, 1, 2, 2, 0, 1} // u0..u5 publications at VENUE
	for u, n := range pubs {
		id := string(rune('a' + u))
		b.AddUser(id, map[string]string{"gender": "f"})
		for i := 0; i < n; i++ {
			b.AddAction(id, "VENUE", 1, 0)
		}
		b.AddAction(id, "other", 1, 0) // noise item, never counted
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := &core.Engine{Data: d}

	// minPubs=1, size=4: order is (u0,3) (u2,2) (u3,2) (u1,1) — u5
	// ties u1 at 1 pub but loses the id tiebreak cut.
	got := CommitteeTarget(eng, "VENUE", 1, 4)
	want := bitset.FromIndices(d.NumUsers(), []int{0, 1, 2, 3})
	if !got.Equal(want) {
		t.Fatalf("target = %v, want users {0,1,2,3}", got)
	}
	// minPubs=2 keeps only u0, u2, u3 regardless of size.
	got = CommitteeTarget(eng, "VENUE", 2, 10)
	want = bitset.FromIndices(d.NumUsers(), []int{0, 2, 3})
	if !got.Equal(want) {
		t.Fatalf("minPubs=2 target = %v, want users {0,2,3}", got)
	}
}

// The sequential batch runners are the references the parallel ones
// are pinned to: one run after another, aggregated in run order.

// RunMTBatch runs the same task over `runs` seeds with fresh sessions.
func RunMTBatch(eng *core.Engine, cfg greedy.Config, task MTTask, policy Policy, runs int, seed uint64) MTBatchResult {
	res := MTBatchResult{Runs: runs}
	sumIter, sumColl, successes := 0, 0, 0
	for i := 0; i < runs; i++ {
		r := rng.Derive(seed, mtStream|uint64(i))
		sess := eng.NewSession(cfg)
		out := RunMT(sess, task, policy, r)
		sumColl += out.Collected
		if out.Success {
			successes++
			sumIter += out.Iterations
		}
	}
	if runs > 0 {
		res.SuccessRate = float64(successes) / float64(runs)
		res.MeanCollected = float64(sumColl) / float64(runs)
	}
	if successes > 0 {
		res.MeanIterations = float64(sumIter) / float64(successes)
	}
	return res
}

// RunSTBatch runs the same single-target task over `runs` seeds.
func RunSTBatch(eng *core.Engine, cfg greedy.Config, task STTask, policy Policy, runs int, seed uint64) STBatchResult {
	res := STBatchResult{Runs: runs}
	sumIter, successes := 0, 0
	sumSim := 0.0
	for i := 0; i < runs; i++ {
		r := rng.Derive(seed, stStream|uint64(i))
		sess := eng.NewSession(cfg)
		out := RunST(sess, task, policy, r)
		sumSim += out.BestSimilarity
		if out.Success {
			successes++
			sumIter += out.Iterations
		}
	}
	if runs > 0 {
		res.SuccessRate = float64(successes) / float64(runs)
		res.MeanBestSim = sumSim / float64(runs)
	}
	if successes > 0 {
		res.MeanIterations = float64(sumIter) / float64(successes)
	}
	return res
}

// RunBrowseBatch aggregates the individual-browsing baseline.
func RunBrowseBatch(numUsers int, target *bitset.Set, quota, perIteration, maxIterations, runs int, seed uint64) STBatchResult {
	res := STBatchResult{Runs: runs}
	sumIter, successes := 0, 0
	sumSim := 0.0
	for i := 0; i < runs; i++ {
		r := rng.Derive(seed, browseStream|uint64(i))
		out := BrowseIndividuals(numUsers, target, quota, perIteration, maxIterations, r)
		sumSim += out.BestSimilarity
		if out.Success {
			successes++
			sumIter += out.Iterations
		}
	}
	if runs > 0 {
		res.SuccessRate = float64(successes) / float64(runs)
		res.MeanBestSim = sumSim / float64(runs)
	}
	if successes > 0 {
		res.MeanIterations = float64(sumIter) / float64(successes)
	}
	return res
}
