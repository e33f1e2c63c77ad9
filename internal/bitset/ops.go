package bitset

import "math/bits"

// InPlaceUnion sets s = s ∪ other.
func (s *Set) InPlaceUnion(other *Set) {
	s.sameUniverse(other)
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// InPlaceIntersect sets s = s ∩ other.
func (s *Set) InPlaceIntersect(other *Set) {
	s.sameUniverse(other)
	for i, w := range other.words {
		s.words[i] &= w
	}
}

// InPlaceDifference sets s = s \ other.
func (s *Set) InPlaceDifference(other *Set) {
	s.sameUniverse(other)
	for i, w := range other.words {
		s.words[i] &^= w
	}
}

// InPlaceComplement sets s = universe \ s.
func (s *Set) InPlaceComplement() {
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	s.trim()
}

// Union returns a new set s ∪ other.
func (s *Set) Union(other *Set) *Set {
	c := s.Clone()
	c.InPlaceUnion(other)
	return c
}

// Intersect returns a new set s ∩ other.
func (s *Set) Intersect(other *Set) *Set {
	c := s.Clone()
	c.InPlaceIntersect(other)
	return c
}

// Difference returns a new set s \ other.
func (s *Set) Difference(other *Set) *Set {
	c := s.Clone()
	c.InPlaceDifference(other)
	return c
}

// IntersectCount returns |s ∩ other| without allocating.
func (s *Set) IntersectCount(other *Set) int {
	s.sameUniverse(other)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & other.words[i])
	}
	return c
}

// UnionCount returns |s ∪ other| without allocating.
func (s *Set) UnionCount(other *Set) int {
	s.sameUniverse(other)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w | other.words[i])
	}
	return c
}

// DifferenceCount returns |s \ other| without allocating.
func (s *Set) DifferenceCount(other *Set) int {
	s.sameUniverse(other)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w &^ other.words[i])
	}
	return c
}

// Intersects reports whether s ∩ other is non-empty, short-circuiting on
// the first overlapping word. This is the edge test of the group graph.
func (s *Set) Intersects(other *Set) bool {
	s.sameUniverse(other)
	for i, w := range s.words {
		if w&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every member of s is a member of other.
func (s *Set) SubsetOf(other *Set) bool {
	s.sameUniverse(other)
	for i, w := range s.words {
		if w&^other.words[i] != 0 {
			return false
		}
	}
	return true
}

// IntersectDifferenceCount returns |s ∩ a \ b| without allocating —
// the coverage-gain kernel of the greedy optimizer's local search (new
// focal members a candidate s would cover beyond the already-covered
// set b).
func (s *Set) IntersectDifferenceCount(a, b *Set) int {
	s.sameUniverse(a)
	s.sameUniverse(b)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & a.words[i] &^ b.words[i])
	}
	return c
}

// Jaccard returns |s ∩ other| / |s ∪ other|. Two empty sets have
// similarity 1 by convention (they are identical).
func (s *Set) Jaccard(other *Set) float64 {
	s.sameUniverse(other)
	inter, union := 0, 0
	for i, w := range s.words {
		ow := other.words[i]
		inter += bits.OnesCount64(w & ow)
		union += bits.OnesCount64(w | ow)
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// JaccardDistance returns 1 - Jaccard(s, other), the distance used by
// the paper's inverted similarity index (§II-A).
func (s *Set) JaccardDistance(other *Set) float64 {
	return 1 - s.Jaccard(other)
}

// Overlap returns |s ∩ other| / min(|s|, |other|) (overlap coefficient),
// used when comparing groups of very different sizes. Returns 1 when
// either set is empty.
func (s *Set) Overlap(other *Set) float64 {
	inter := s.IntersectCount(other)
	a, b := s.Count(), other.Count()
	m := a
	if b < m {
		m = b
	}
	if m == 0 {
		return 1
	}
	return float64(inter) / float64(m)
}
