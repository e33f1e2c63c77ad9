package rng

import (
	"math"
	"testing"
)

// TestZipfRankFrequency is the property the loadsim arrival model
// leans on: empirical rank frequencies of the sampler match the
// analytic 1/(rank+1)^s mass. Head ranks (where the mass concentrates
// and the law of large numbers bites hardest) must match within a few
// percent relative error; the whole distribution must match in total
// variation distance.
func TestZipfRankFrequency(t *testing.T) {
	const (
		n       = 500
		s       = 1.1
		samples = 400000
	)
	z := NewZipf(New(12345), s, n)
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[z.Next()]++
	}

	// Head ranks: each carries enough mass that a 5% relative band is
	// thousands of standard deviations wide of a broken sampler but
	// comfortably loose for sampling noise at 4e5 draws.
	for rank := 0; rank < 20; rank++ {
		want := z.Prob(rank)
		got := float64(counts[rank]) / samples
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Errorf("rank %d: empirical %.5f vs analytic %.5f (rel err %.3f)", rank, got, want, rel)
		}
	}

	// Whole distribution: total variation distance. For a correct
	// sampler this is O(sqrt(n/samples)) ~ 0.02; a mis-normalized CDF
	// or off-by-one rank shift blows it past 0.1 immediately.
	tv := 0.0
	for rank := 0; rank < n; rank++ {
		tv += math.Abs(float64(counts[rank])/samples - z.Prob(rank))
	}
	tv /= 2
	if tv > 0.03 {
		t.Errorf("total variation distance %.4f exceeds 0.03", tv)
	}

	// Rank-frequency monotonicity in aggregate: the head must out-draw
	// the tail by roughly the analytic ratio.
	head := counts[0]
	tail := counts[n-1]
	if head <= tail {
		t.Errorf("rank 0 drawn %d times, rank %d drawn %d — Zipf head/tail inverted", head, n-1, tail)
	}
}

// Prob returns the probability mass of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
