package simulate

import (
	"vexus/internal/action"
	"vexus/internal/bitset"
	"vexus/internal/core"
	"vexus/internal/greedy"
	"vexus/internal/parallel"
	"vexus/internal/rng"
)

// The batch runners shard a campaign's runs over internal/parallel.
// Every run is independent — run i derives its own RNG through
// rng.Derive(seed, family|i) (the stream constants in batch.go) and
// its own fresh session off the shared immutable engine — so each run
// writes its raw outcome into its own slot and the aggregate is
// reduced from the slots in run order afterwards. Integer sums are
// order-independent and the float sums are accumulated in run order,
// so the aggregates are exactly (bit-for-bit) equal to the sequential
// references in parallel_test.go (one run after another) for every
// worker count. Note that exact equality across *repeated*
// invocations additionally requires a deterministic optimizer
// (greedy.Config.TimeLimit = 0).

// RunMTBatchParallel runs the same MT task over `runs` seeds with
// fresh sessions, sharded over `workers` goroutines (<= 0 means
// runtime.NumCPU()).
func RunMTBatchParallel(eng *core.Engine, cfg greedy.Config, task MTTask, policy Policy, runs int, seed uint64, workers int) MTBatchResult {
	res := MTBatchResult{Runs: runs}
	if runs <= 0 {
		return res
	}
	slots := make([]MTResult, runs)
	parallel.ForEach(runs, workers, func(_, i int) {
		r := rng.Derive(seed, mtStream|uint64(i))
		out := RunMT(action.New(eng, cfg), task, policy, r)
		out.CollectedTrace = nil // aggregate only; don't retain per-run traces
		slots[i] = out
	})
	sumIter, sumColl, successes := 0, 0, 0
	for i := range slots {
		sumColl += slots[i].Collected
		if slots[i].Success {
			successes++
			sumIter += slots[i].Iterations
		}
	}
	res.SuccessRate = float64(successes) / float64(runs)
	res.MeanCollected = float64(sumColl) / float64(runs)
	if successes > 0 {
		res.MeanIterations = float64(sumIter) / float64(successes)
	}
	return res
}

// RunSTBatchParallel runs the same single-target task over `runs`
// seeds, sharded over `workers` goroutines.
func RunSTBatchParallel(eng *core.Engine, cfg greedy.Config, task STTask, policy Policy, runs int, seed uint64, workers int) STBatchResult {
	res := STBatchResult{Runs: runs}
	if runs <= 0 {
		return res
	}
	slots := make([]STResult, runs)
	parallel.ForEach(runs, workers, func(_, i int) {
		r := rng.Derive(seed, stStream|uint64(i))
		slots[i] = RunST(action.New(eng, cfg), task, policy, r)
	})
	return reduceST(res, slots)
}

// RunBrowseBatchParallel aggregates the individual-browsing baseline
// over `runs` seeds, sharded over `workers` goroutines. The target
// bitset is only read concurrently.
func RunBrowseBatchParallel(numUsers int, target *bitset.Set, quota, perIteration, maxIterations, runs int, seed uint64, workers int) STBatchResult {
	res := STBatchResult{Runs: runs}
	if runs <= 0 {
		return res
	}
	slots := make([]STResult, runs)
	parallel.ForEach(runs, workers, func(_, i int) {
		r := rng.Derive(seed, browseStream|uint64(i))
		slots[i] = BrowseIndividuals(numUsers, target, quota, perIteration, maxIterations, r)
	})
	return reduceST(res, slots)
}

// reduceST folds per-run ST outcomes in run order — the identical
// accumulation order (and thus identical float rounding) to the
// sequential references.
func reduceST(res STBatchResult, slots []STResult) STBatchResult {
	sumIter, successes := 0, 0
	sumSim := 0.0
	for i := range slots {
		sumSim += slots[i].BestSimilarity
		if slots[i].Success {
			successes++
			sumIter += slots[i].Iterations
		}
	}
	res.SuccessRate = float64(successes) / float64(res.Runs)
	res.MeanBestSim = sumSim / float64(res.Runs)
	if successes > 0 {
		res.MeanIterations = float64(sumIter) / float64(successes)
	}
	return res
}
