package greedy

import (
	"fmt"
	"math"
	"time"
)

// ExhaustiveSelect enumerates every k-subset of the same candidate
// pool SelectNext would use (both default CandidatePool to
// defaultCandidatePool) and returns the true optimum of the blended
// objective (without feedback personalization). It is the greedy
// tests' oracle on small pools; E1 instead measures quality against a
// 3-second SelectNext, since real pools are far too large to
// enumerate. It errors when C(pool, k) exceeds maxEvals (default
// 5,000,000 when ≤ 0) to guard against combinatorial blow-up.
func (o *Optimizer) ExhaustiveSelect(focalID int, cfg Config, maxEvals int) (Selection, error) {
	start := time.Now()
	if cfg.K <= 0 {
		return Selection{}, fmt.Errorf("greedy: K must be positive, got %d", cfg.K)
	}
	if cfg.CandidatePool <= 0 {
		cfg.CandidatePool = defaultCandidatePool
	}
	if maxEvals <= 0 {
		maxEvals = 5_000_000
	}
	focal := o.space.Group(focalID)
	cands := o.pool(focal, nil, cfg)
	if len(cands) == 0 {
		return Selection{Diversity: 1, Elapsed: time.Since(start)}, nil
	}
	k := cfg.K
	if k > len(cands) {
		k = len(cands)
	}
	if c := binomial(len(cands), k); c < 0 || c > maxEvals {
		return Selection{}, fmt.Errorf("greedy: C(%d,%d) exceeds budget %d", len(cands), k, maxEvals)
	}

	best := Selection{Objective: math.Inf(-1)}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		st := newSelState(o.space, focal, cands, cfg)
		for _, ci := range idx {
			st.add(ci)
		}
		if sc := st.score(); sc > best.Objective {
			cov, div, fbk := st.objectives()
			ids := make([]int, k)
			for i, ci := range idx {
				ids[i] = int(cands[ci].id)
			}
			best = Selection{
				IDs: ids, Coverage: cov, Diversity: div, Feedback: fbk,
				Objective: sc, Candidates: len(cands),
			}
		}
		if !nextCombination(idx, len(cands)) {
			break
		}
	}
	best.Elapsed = time.Since(start)
	return best, nil
}

// nextCombination advances idx to the next k-combination of [0, n);
// it returns false after the last one.
func nextCombination(idx []int, n int) bool {
	k := len(idx)
	for i := k - 1; i >= 0; i-- {
		if idx[i] < n-k+i {
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
			return true
		}
	}
	return false
}

// binomial returns C(n, k), or -1 on overflow.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 1; i <= k; i++ {
		if c > (1<<62)/(n-k+i) {
			return -1
		}
		c = c * (n - k + i) / i
	}
	return c
}
