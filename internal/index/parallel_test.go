package index

import (
	"fmt"
	"testing"
)

// TestParallelBuildEquivalence: the multi-worker build must produce
// byte-identical inverted lists (entries, order, lengths, overlap
// counts) to the 1-worker build, across materialization fractions and
// seeded synthetic spaces of different shapes.
func TestParallelBuildEquivalence(t *testing.T) {
	spaces := []struct {
		name  string
		seed  uint64
		users int
		n     int
	}{
		{"small-dense", 11, 40, 25},
		{"mid", 12, 200, 120},
		{"many-groups", 13, 150, 300},
	}
	for _, sp := range spaces {
		s := buildSpace(t, sp.seed, sp.users, sp.n)
		for _, frac := range []float64{0.1, 0.5, 1.0} {
			for _, workers := range []int{2, 4, 7} {
				t.Run(fmt.Sprintf("%s/frac=%.1f/w=%d", sp.name, frac, workers), func(t *testing.T) {
					seq, err := BuildParallel(s, frac, 1)
					if err != nil {
						t.Fatal(err)
					}
					par, err := BuildParallel(s, frac, workers)
					if err != nil {
						t.Fatal(err)
					}
					for gid := 0; gid < s.Len(); gid++ {
						if seq.overlapCount[gid] != par.overlapCount[gid] {
							t.Fatalf("gid %d: overlapCount %d != %d",
								gid, par.overlapCount[gid], seq.overlapCount[gid])
						}
						a, b := seq.lists[gid], par.lists[gid]
						if len(a) != len(b) {
							t.Fatalf("gid %d: list length %d != %d", gid, len(b), len(a))
						}
						for i := range a {
							if a[i] != b[i] {
								t.Fatalf("gid %d entry %d: parallel %+v != sequential %+v",
									gid, i, b[i], a[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestBuildDefaultsToParallel: the default worker count (0 = one per
// CPU) matches the explicit 1-worker build too.
func TestBuildDefaultsToParallel(t *testing.T) {
	s := buildSpace(t, 21, 120, 80)
	auto, err := BuildParallel(s, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := BuildParallel(s, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for gid := 0; gid < s.Len(); gid++ {
		a, b := seq.lists[gid], auto.lists[gid]
		if len(a) != len(b) {
			t.Fatalf("gid %d: list length %d != %d", gid, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("gid %d entry %d: %+v != %+v", gid, i, b[i], a[i])
			}
		}
	}
}
