// Package bitset implements a dense, fixed-universe bitset used to
// represent user-group membership throughout VEXUS.
//
// Group similarity (Jaccard) is the inner loop of both offline index
// construction and the online greedy optimizer, so the representation is
// optimized for word-parallel intersection/union cardinality: computing
// |A ∩ B| over a 100k-user universe touches ~1.6k words instead of
// iterating hash sets.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bitset over the universe [0, Len()). The zero value is
// an empty set with a zero-sized universe; use New to size the universe.
//
// All binary operations require both operands to share the same universe
// size and panic otherwise: mixing universes is always a programming
// error in VEXUS (groups are defined over one dataset's user space).
type Set struct {
	words []uint64
	n     int // universe size in bits
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a set over [0, n) with the given members set.
// Indices outside the universe cause a panic.
func FromIndices(n int, indices []int) *Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Len returns the universe size (not the number of members; see Count).
func (s *Set) Len() int { return s.n }

// Words exposes the backing little-endian word array (bit i of word w
// is member w·64+i). The returned slice aliases the set's storage and
// must not be modified — it exists so serializers (internal/store) can
// write members without a per-bit walk.
func (s *Set) Words() []uint64 { return s.words }

// FromWords reconstructs a set over [0, n) from a word array as
// produced by Words, taking ownership of the slice. The word count
// must match the universe exactly; bits beyond the universe in the
// final word are cleared, so a round trip through Words/FromWords is
// bit-identical.
func FromWords(n int, words []uint64) (*Set, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitset: negative universe size %d", n)
	}
	if want := (n + wordBits - 1) / wordBits; len(words) != want {
		return nil, fmt.Errorf("bitset: %d words for universe %d, want %d", len(words), n, want)
	}
	s := &Set{words: words, n: n}
	s.trim()
	return s, nil
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is a member.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of members (popcount).
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no members.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all members, keeping the universe size.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of other (same universe required).
func (s *Set) Copy(other *Set) {
	s.sameUniverse(other)
	copy(s.words, other.words)
}

// Fill adds every element of the universe to the set.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Equal reports whether s and other have identical members and universe.
func (s *Set) Equal(other *Set) bool {
	if s.n != other.n {
		return false
	}
	for i, w := range s.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// Indices returns the members in ascending order. It allocates; prefer
// Range or the *Count methods in hot paths.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.Range(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Range calls fn for each member in ascending order until fn returns
// false.
func (s *Set) Range(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// String renders the set as "{1, 5, 9}" with at most 16 members shown.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	shown := 0
	total := s.Count()
	s.Range(func(i int) bool {
		if shown > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", i)
		shown++
		return shown < 16
	})
	if total > 16 {
		fmt.Fprintf(&b, ", … %d more", total-16)
	}
	b.WriteByte('}')
	return b.String()
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of universe [0,%d)", i, s.n))
	}
}

func (s *Set) sameUniverse(other *Set) {
	if s.n != other.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d vs %d", s.n, other.n))
	}
}

// trim clears bits beyond the universe in the final word so that Count
// and word-level comparisons stay exact after Fill / complement ops.
func (s *Set) trim() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}
