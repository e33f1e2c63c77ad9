package groups

import (
	"slices"
	"sort"
	"testing"

	"vexus/internal/rng"
)

// referenceSortBySize is SortBySize's order computed from the member
// sets: sort.Slice with a full popcount on both sides of every
// comparison. It is the oracle for SortBySize, which reads the sizes
// the space counted once.
func referenceSortBySize(s *Space, ids []int) {
	sort.Slice(ids, func(i, j int) bool {
		si, sj := s.Group(ids[i]).Size(), s.Group(ids[j]).Size()
		if si != sj {
			return si > sj
		}
		return ids[i] < ids[j]
	})
}

// TestSortBySizeMatchesReference sorts every group of the test spaces,
// and shuffled subsets of them, both ways. The random spaces draw
// sizes from a narrow range, so most comparisons fall to the id
// tie-break.
func TestSortBySizeMatchesReference(t *testing.T) {
	spaces := []*Space{newTestSpace(t)}
	for _, shape := range []struct{ u, n int }{{50, 40}, {30, 700}} {
		vocab, gs := randomGroups(uint64(shape.n), shape.u, shape.n)
		s, err := NewSpaceParallel(shape.u, vocab, gs, 2)
		if err != nil {
			t.Fatal(err)
		}
		spaces = append(spaces, s)
	}
	r := rng.New(5)
	for si, s := range spaces {
		for trial := 0; trial < 20; trial++ {
			ids := r.Perm(s.Len())
			if trial > 0 {
				ids = ids[:r.Intn(len(ids)+1)]
			}
			want := slices.Clone(ids)
			referenceSortBySize(s, want)
			s.SortBySize(ids)
			if !slices.Equal(ids, want) {
				t.Fatalf("space %d trial %d: SortBySize = %v, reference %v", si, trial, ids, want)
			}
		}
	}
}

// TestByDescriptionRoundTrip: every group of the test spaces is found
// by its own description, without allocating, and descriptions whose
// ids would run together without a separator ({1,23} against {12,3})
// are told apart.
func TestByDescriptionRoundTrip(t *testing.T) {
	vocab, gs := randomGroups(7, 40, 300)
	pair := &Group{Desc: NewDescription(12, 3), Members: mk(40, 1, 2)}
	s, err := NewSpace(40, vocab, append(gs, pair))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []*Space{newTestSpace(t), s} {
		for _, g := range sp.Groups() {
			if got := sp.ByDescription(g.Desc); got != g {
				t.Fatalf("ByDescription(%v) = %v, want group %d", g.Desc, got, g.ID)
			}
		}
	}
	if got := s.ByDescription(NewDescription(12, 3)); got != pair {
		t.Fatalf("ByDescription({3,12}) = %v", got)
	}
	for _, d := range []Description{NewDescription(1, 23), NewDescription(1, 2, 3), NewDescription(3, 12, 40), NewDescription()} {
		if got := s.ByDescription(d); got != nil {
			t.Fatalf("absent description %v found group %d", d, got.ID)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.ByDescription(pair.Desc) }); n != 0 {
		t.Fatalf("ByDescription allocates %v times per lookup", n)
	}
}
