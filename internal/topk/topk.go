// Package topk moves the k first elements of a slice, in a caller's
// order, to its front without sorting the rest: the step that lets a
// caller sort only the k entries it returns.
package topk

// Select partitions s so that its k first elements by cmp occupy s[:k],
// in arbitrary order (iterative quickselect, median-of-three pivots).
// cmp is a three-way comparison as for slices.SortFunc; when it is a
// strict total order, s[:k] sorted equals a full sort of s cut to k.
// k ≤ 0 or k ≥ len(s) leaves s as it is.
func Select[T any](s []T, k int, cmp func(a, b T) int) {
	if k <= 0 || k >= len(s) {
		return
	}
	lo, hi := 0, len(s)
	for hi-lo > 1 {
		p := partition(s, lo, hi, cmp)
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
		if lo >= k {
			return
		}
	}
}

// partition orders s[lo:hi] around a median-of-three pivot, elements
// before it by cmp first, and returns the pivot's final position.
func partition[T any](s []T, lo, hi int, cmp func(a, b T) int) int {
	mid := lo + (hi-lo)/2
	if cmp(s[mid], s[lo]) < 0 {
		s[lo], s[mid] = s[mid], s[lo]
	}
	if cmp(s[hi-1], s[lo]) < 0 {
		s[lo], s[hi-1] = s[hi-1], s[lo]
	}
	if cmp(s[hi-1], s[mid]) < 0 {
		s[mid], s[hi-1] = s[hi-1], s[mid]
	}
	pivot := s[mid]
	s[mid], s[hi-1] = s[hi-1], s[mid]
	store := lo
	for i := lo; i < hi-1; i++ {
		if cmp(s[i], pivot) < 0 {
			s[i], s[store] = s[store], s[i]
			store++
		}
	}
	s[store], s[hi-1] = s[hi-1], s[store]
	return store
}
