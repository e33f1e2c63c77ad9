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

// IntersectCount returns |s ∩ other| without allocating.
func (s *Set) IntersectCount(other *Set) int {
	s.sameUniverse(other)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & other.words[i])
	}
	return c
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
