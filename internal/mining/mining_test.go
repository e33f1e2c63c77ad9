package mining

import (
	"testing"

	"vexus/internal/bitset"
	"vexus/internal/dataset"
	"vexus/internal/groups"
)

func buildTx(t *testing.T) *Transactions {
	t.Helper()
	v := groups.NewVocab()
	a := v.Intern("g", "a") // 0
	b := v.Intern("g", "b") // 1
	c := v.Intern("c", "x") // 2
	perUser := [][]groups.TermID{
		{a, c},
		{a, c},
		{a},
		{b, c},
		{b},
	}
	return NewTransactions(v, perUser)
}

func TestTransactionsVertical(t *testing.T) {
	tx := buildTx(t)
	if tx.N != 5 {
		t.Fatalf("N = %d", tx.N)
	}
	if got := tx.Support(0); got != 3 {
		t.Fatalf("Support(a) = %d", got)
	}
	if got := tx.Support(2); got != 3 {
		t.Fatalf("Support(c) = %d", got)
	}
}

func TestTransactionsDedupSort(t *testing.T) {
	v := groups.NewVocab()
	a := v.Intern("g", "a")
	b := v.Intern("g", "b")
	tx := NewTransactions(v, [][]groups.TermID{{b, a, b, a}})
	if len(tx.PerUser[0]) != 2 || tx.PerUser[0][0] != a || tx.PerUser[0][1] != b {
		t.Fatalf("PerUser = %v", tx.PerUser[0])
	}
}

func TestSupportOfAndMembers(t *testing.T) {
	tx := buildTx(t)
	d := groups.NewDescription(0, 2) // a ∧ x
	if got := tx.SupportOf(d); got != 2 {
		t.Fatalf("SupportOf = %d", got)
	}
	m := tx.MembersOf(d)
	if !m.Equal(bitset.FromIndices(5, []int{0, 1})) {
		t.Fatalf("MembersOf = %v", m)
	}
	if got := tx.SupportOf(groups.NewDescription()); got != 5 {
		t.Fatalf("empty SupportOf = %d", got)
	}
}

func TestClosure(t *testing.T) {
	tx := buildTx(t)
	// Users {0,1} carry exactly {a, c}.
	m := bitset.FromIndices(5, []int{0, 1})
	cl := tx.Closure(m)
	if !groups.NewDescription(cl...).Equal(groups.NewDescription(0, 2)) {
		t.Fatalf("Closure = %v", cl)
	}
	// Empty member set has empty closure by convention.
	if got := tx.Closure(bitset.New(5)); len(got) != 0 {
		t.Fatalf("Closure(∅) = %v", got)
	}
	// All users share nothing.
	full := bitset.New(5)
	full.Fill()
	if got := tx.Closure(full); len(got) != 0 {
		t.Fatalf("Closure(all) = %v", got)
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}
	norm, err := o.Normalized(10)
	if err != nil {
		t.Fatal(err)
	}
	if norm.MinSupport != 1 {
		t.Fatalf("MinSupport normalized to %d", norm.MinSupport)
	}
	if o.MinSupport != 0 {
		t.Fatalf("Normalized mutated the receiver: MinSupport=%d", o.MinSupport)
	}
	bad := Options{MinSupport: 11}
	if _, err := bad.Normalized(10); err == nil {
		t.Fatal("oversized MinSupport accepted")
	}
	neg := Options{MaxLen: -1}
	if _, err := neg.Normalized(10); err == nil {
		t.Fatal("negative MaxLen accepted")
	}
	if err := (Options{MaxGroups: -1}).Validate(10); err == nil {
		t.Fatal("negative MaxGroups accepted")
	}
}

func encodeFixture(t *testing.T) *dataset.Dataset {
	t.Helper()
	s := dataset.MustSchema(
		dataset.Attribute{Name: "gender", Kind: dataset.Categorical, Values: []string{"f", "m"}},
	)
	b := dataset.NewBuilder(s)
	b.AddUser("u1", map[string]string{"gender": "f"})
	b.AddUser("u2", map[string]string{"gender": "m"})
	b.AddUser("u3", nil) // missing gender
	b.AddAction("u1", "book", 5, 0)
	b.AddAction("u2", "book", 1, 0)
	b.AddAction("u1", "rare", 3, 0)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEncodeDemographicsOnly(t *testing.T) {
	d := encodeFixture(t)
	tx, err := Encode(d, EncodeOptions{Demographics: true})
	if err != nil {
		t.Fatal(err)
	}
	if tx.N != 3 {
		t.Fatalf("N = %d", tx.N)
	}
	if tx.Vocab.Len() != 2 {
		t.Fatalf("vocab = %d terms", tx.Vocab.Len())
	}
	if len(tx.PerUser[2]) != 0 {
		t.Fatalf("u3 terms = %v", tx.PerUser[2])
	}
}

func TestEncodeItemTerms(t *testing.T) {
	d := encodeFixture(t)
	tx, err := Encode(d, EncodeOptions{TopItems: 1, LikeThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	liked := tx.Vocab.Lookup("item:book", "liked")
	disliked := tx.Vocab.Lookup("item:book", "disliked")
	if liked < 0 || disliked < 0 {
		t.Fatalf("item terms missing: vocab=%d", tx.Vocab.Len())
	}
	if tx.Vocab.Lookup("item:rare", "liked") != -1 {
		t.Fatal("non-top item got a term")
	}
	if !tx.Tids[liked].Contains(0) || !tx.Tids[disliked].Contains(1) {
		t.Fatal("like/dislike assignment wrong")
	}
}

func TestEncodeActivity(t *testing.T) {
	d := encodeFixture(t)
	tx, err := Encode(d, EncodeOptions{ActivityLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	terms := tx.Vocab.TermsOfField("activity")
	if len(terms) == 0 {
		t.Fatal("no activity terms")
	}
	// Every user carries exactly one activity term.
	for u := 0; u < tx.N; u++ {
		n := 0
		for _, id := range tx.PerUser[u] {
			if tx.Vocab.Term(id).Field == "activity" {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("user %d has %d activity terms", u, n)
		}
	}
}

func TestEncodeTooManyLevels(t *testing.T) {
	d := encodeFixture(t)
	if _, err := Encode(d, EncodeOptions{ActivityLevels: 99}); err == nil {
		t.Fatal("99 levels accepted")
	}
}

func TestQuantileBoundsTies(t *testing.T) {
	// Heavy ties collapse bounds rather than emitting duplicates.
	bounds := quantileBounds([]int{0, 0, 0, 0, 0, 0, 0, 5}, 4)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly ascending: %v", bounds)
		}
	}
	if levelOf(0, bounds) != 0 {
		t.Fatalf("levelOf(0) = %d", levelOf(0, bounds))
	}
}
