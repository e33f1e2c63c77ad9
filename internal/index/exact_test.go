package index

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func requireSameList(t *testing.T, what string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s entry %d: %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestNewMatchesBuild: the engine's stateless index answers every
// lookup exactly as a materialized one does — below, at and past the
// prefix, at the optimizer's pool size and past the overlap count —
// for every fraction and worker count, so selections cannot tell them
// apart.
func TestNewMatchesBuild(t *testing.T) {
	spaces := []struct {
		name  string
		seed  uint64
		users int
		n     int
	}{
		{"mid", 31, 200, 120},
		{"many-groups", 32, 150, 200},
	}
	for _, sp := range spaces {
		s := buildSpace(t, sp.seed, sp.users, sp.n)
		exact := New(s)
		for _, frac := range []float64{0.01, 0.10, 1.0} {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/frac=%.2f/w=%d", sp.name, frac, workers), func(t *testing.T) {
					built, err := BuildParallel(s, frac, workers)
					if err != nil {
						t.Fatal(err)
					}
					for gid := 0; gid < s.Len(); gid++ {
						prefix, overlap := built.MaterializedLen(gid), built.overlapCount[gid]
						for _, k := range []int{1, prefix, prefix + 1, 4096, overlap + 1} {
							requireSameList(t, fmt.Sprintf("gid %d k=%d", gid, k),
								exact.Neighbors(gid, k), built.Neighbors(gid, k))
						}
					}
				})
			}
		}
	}
}

// TestNewConcurrentLookups: goroutines sharing one index each get the
// 1-goroutine answer, so pooled scratch is re-zeroed after every
// lookup and never shared between two at once (run under -race).
func TestNewConcurrentLookups(t *testing.T) {
	s := buildSpace(t, 33, 150, 200)
	ks := []int{1, 10, 4096}
	want := make([][][]Neighbor, s.Len())
	seq := New(s)
	for gid := range want {
		for _, k := range ks {
			want[gid] = append(want[gid], seq.Neighbors(gid, k))
		}
	}

	ix := New(s)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := 0; i < s.Len(); i++ {
					gid := (i*7 + g*13 + round) % s.Len()
					for j, k := range ks {
						got, w := ix.Neighbors(gid, k), want[gid][j]
						if len(got) != len(w) {
							t.Errorf("goroutine %d gid %d k=%d: %d entries, want %d", g, gid, k, len(got), len(w))
							return
						}
						for e := range w {
							if got[e] != w[e] {
								t.Errorf("goroutine %d gid %d k=%d entry %d: %+v, want %+v", g, gid, k, e, got[e], w[e])
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSimilarMatchesNeighbors: Similar returns, as a set, Neighbors'
// top k without the entries below the bound — on the stateless index
// and on built ones with and without the fallback, for caps below, at
// and past the prefix — and every entry's Inter is the bitset overlap
// count its similarity came from.
func TestSimilarMatchesNeighbors(t *testing.T) {
	s := buildSpace(t, 34, 150, 200)
	indexes := map[string]*Index{"new": New(s)}
	for _, frac := range []float64{0.05, 1.0} {
		for _, disable := range []bool{false, true} {
			ix, err := BuildParallel(s, frac, 2)
			if err != nil {
				t.Fatal(err)
			}
			ix.DisableFallback = disable
			indexes[fmt.Sprintf("frac=%.2f/disableFallback=%v", frac, disable)] = ix
		}
	}
	for name, ix := range indexes {
		for gid := 0; gid < s.Len(); gid++ {
			for _, k := range []int{1, 5, 40, 4096} {
				for _, minSim := range []float64{0, 0.2, 0.35} {
					var want []Neighbor
					for _, nb := range ix.Neighbors(gid, k) {
						if nb.Sim >= minSim {
							want = append(want, nb)
						}
					}
					got := append([]Neighbor(nil), ix.Similar(gid, minSim, k)...)
					slices.SortFunc(got, compareNeighbors)
					requireSameList(t, fmt.Sprintf("%s gid %d k=%d minSim=%v", name, gid, k, minSim), got, want)
					for _, nb := range got {
						if w := s.Group(gid).Members.IntersectCount(s.Group(int(nb.ID)).Members); int(nb.Inter) != w {
							t.Fatalf("%s gid %d: Inter to %d = %d, want %d", name, gid, nb.ID, nb.Inter, w)
						}
					}
				}
			}
		}
	}
}
