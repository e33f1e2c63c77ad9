package groups

import (
	"fmt"
	"slices"
	"testing"

	"vexus/internal/bitset"
	"vexus/internal/rng"
)

// randomGroups builds n groups over u users with distinct one-term
// descriptions (n can exceed 256 to trip the parallel inversion path).
func randomGroups(seed uint64, u, n int) (*Vocab, []*Group) {
	r := rng.New(seed)
	v := NewVocab()
	gs := make([]*Group, 0, n)
	for i := 0; i < n; i++ {
		id := v.Intern("t", fmt.Sprintf("v%d", i))
		members := bitset.New(u)
		size := 1 + r.Intn(u/2)
		for _, m := range r.SampleWithoutReplacement(u, size) {
			members.Add(m)
		}
		gs = append(gs, &Group{Desc: NewDescription(id), Members: members})
	}
	return v, gs
}

// TestNewSpaceParallelEquivalence: at every worker count the inversion
// produces the user→groups lists of a plain sequential append over the
// groups, each allocated at its exact length, and each group's size,
// for spaces above and below the one-worker threshold.
func TestNewSpaceParallelEquivalence(t *testing.T) {
	for _, shape := range []struct{ u, n int }{{50, 40}, {120, 300}, {30, 700}} {
		vocab, gs := randomGroups(uint64(shape.n), shape.u, shape.n)
		want := make([][]int32, shape.u)
		for i, g := range gs {
			g.Members.Range(func(u int) bool {
				want[u] = append(want[u], int32(i))
				return true
			})
		}
		for _, workers := range []int{1, 2, 5, 16} {
			s, err := NewSpaceParallel(shape.u, vocab, cloneGroups(gs, shape.u), workers)
			if err != nil {
				t.Fatal(err)
			}
			for gid, g := range gs {
				if got := s.Sizes()[gid]; got != g.Members.Count() {
					t.Fatalf("u=%d n=%d workers=%d: group %d size %d, want %d",
						shape.u, shape.n, workers, gid, got, g.Members.Count())
				}
			}
			for u := 0; u < shape.u; u++ {
				got := s.GroupsOfUser(u)
				if !slices.Equal(got, want[u]) {
					t.Fatalf("u=%d n=%d workers=%d: user %d list %v, want %v",
						shape.u, shape.n, workers, u, got, want[u])
				}
				if cap(got) != len(got) {
					t.Fatalf("u=%d n=%d workers=%d: user %d list holds %d ids in %d slots",
						shape.u, shape.n, workers, u, len(got), cap(got))
				}
			}
		}
	}
}

// cloneGroups re-creates groups so each NewSpace call gets fresh ID
// assignment without sharing mutable Group structs.
func cloneGroups(gs []*Group, u int) []*Group {
	out := make([]*Group, len(gs))
	for i, g := range gs {
		m := bitset.New(u)
		m.InPlaceUnion(g.Members)
		out[i] = &Group{Desc: g.Desc, Members: m}
	}
	return out
}

// TestComputeStatsParallelEquivalence: partial-merge stats must equal
// the 1-worker scan exactly (all accumulators are integral).
func TestComputeStatsParallelEquivalence(t *testing.T) {
	vocab, gs := randomGroups(99, 80, 500)
	s, err := NewSpace(80, vocab, gs)
	if err != nil {
		t.Fatal(err)
	}
	want := s.ComputeStatsParallel(1)
	for _, workers := range []int{2, 4, 9} {
		got := s.ComputeStatsParallel(workers)
		if got != want {
			t.Fatalf("workers=%d: stats %+v != %+v", workers, got, want)
		}
	}
}
