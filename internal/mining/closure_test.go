package mining_test

import (
	"testing"

	"vexus/internal/bitset"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/groups"
	"vexus/internal/mining"
	"vexus/internal/mining/lcm"
	"vexus/internal/rng"
)

// referenceClosure is the closure by definition: a scan of the whole
// vocabulary for the terms whose tid-list contains the member set. It
// is the oracle for Transactions.Closure, which walks only the first
// member's terms.
func referenceClosure(t *mining.Transactions, members *bitset.Set) groups.Description {
	if members.IsEmpty() {
		return groups.NewDescription()
	}
	out := make(groups.Description, 0, 8)
	for id := range t.Tids {
		if members.SubsetOf(t.Tids[id]) {
			out = append(out, groups.TermID(id))
		}
	}
	return out
}

func requireClosure(t *testing.T, label string, tx *mining.Transactions, members *bitset.Set) groups.Description {
	t.Helper()
	got, want := tx.Closure(members), referenceClosure(tx, members)
	if got == nil || !got.Equal(want) {
		t.Fatalf("%s: Closure(%v) = %v, reference %v", label, members, got, want)
	}
	return got
}

// TestClosureMatchesReference compares Closure with the whole-vocabulary
// scan on the member set of every group LCM mines from two corpora, on
// random subsets of those sets, and on the empty, singleton and full
// sets.
func TestClosureMatchesReference(t *testing.T) {
	authors, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	books, err := datagen.BookCrossing(datagen.BookCrossingConfig{NumUsers: 300, NumBooks: 200, NumRatings: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		d    *dataset.Dataset
		opts mining.EncodeOptions
	}{
		{"dbauthors", authors, datagen.DBAuthorsEncodeOptions()},
		{"bookcrossing", books, datagen.BookCrossingEncodeOptions()},
	} {
		tx, err := mining.Encode(c.d, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		requireClosure(t, c.name+" empty", tx, bitset.New(tx.N))
		full := bitset.New(tx.N)
		full.Fill()
		requireClosure(t, c.name+" full", tx, full)
		for u := 0; u < tx.N; u++ {
			requireClosure(t, c.name+" singleton", tx, bitset.FromIndices(tx.N, []int{u}))
		}
		gs, err := lcm.New(mining.Options{MinSupport: 6}).Mine(tx)
		if err != nil {
			t.Fatal(err)
		}
		if len(gs) < 100 {
			t.Fatalf("%s: only %d groups mined", c.name, len(gs))
		}
		r := rng.New(uint64(len(gs)))
		sub := bitset.New(tx.N)
		for _, g := range gs {
			if cl := requireClosure(t, c.name+" group", tx, g.Members); !cl.Equal(g.Desc) {
				t.Fatalf("%s: group %v closes to %v", c.name, g.Desc, cl)
			}
			sub.Clear()
			g.Members.Range(func(u int) bool {
				if r.Bool(0.5) {
					sub.Add(u)
				}
				return true
			})
			requireClosure(t, c.name+" subset", tx, sub)
		}
	}
}
