package rng

import "math"

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. Item popularity in rating datasets such as BookCrossing
// is strongly Zipfian, which is what makes group mining non-trivial:
// a handful of items appear in most transactions while the tail is
// sparse. The sampler precomputes the CDF, so each draw is a binary
// search: O(log n).
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf returns a Zipf sampler over n ranks with exponent s > 0.
// It panics if n <= 0 or s <= 0.
func NewZipf(r *RNG, s float64, n int) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if s <= 0 {
		panic("rng: Zipf with non-positive exponent")
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += 1 / math.Pow(float64(i+1), s)
		cdf[i] = acc
	}
	for i := range cdf {
		cdf[i] /= acc
	}
	return &Zipf{cdf: cdf, rng: r}
}

// Next returns the next sampled rank, in [0, n) for NewZipf(r, s, n).
func (z *Zipf) Next() int {
	x := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
