package topk

import (
	"cmp"
	"slices"
	"testing"

	"vexus/internal/rng"
)

type entry struct {
	key, id int
}

// byKeyDescID is a strict total order with many ties on the key.
func byKeyDescID(a, b entry) int {
	if c := cmp.Compare(b.key, a.key); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// TestSelectMatchesSort: for every k, the k selected entries sorted
// are the full sort's first k, on random slices with tied keys.
func TestSelectMatchesSort(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(200)
		s := make([]entry, n)
		for i := range s {
			s[i] = entry{key: r.Intn(12), id: i}
		}
		r.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
		want := slices.Clone(s)
		slices.SortFunc(want, byKeyDescID)
		for _, k := range []int{-1, 0, 1, n / 3, n - 1, n, n + 5} {
			got := slices.Clone(s)
			Select(got, k, byKeyDescID)
			m := max(0, min(k, n))
			top := slices.Clone(got[:m])
			slices.SortFunc(top, byKeyDescID)
			if !slices.Equal(top, want[:m]) {
				t.Fatalf("trial %d n=%d k=%d: selected %v, want %v", trial, n, k, top, want[:m])
			}
			slices.SortFunc(got, byKeyDescID)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d n=%d k=%d: Select lost or duplicated entries", trial, n, k)
			}
		}
	}
}
