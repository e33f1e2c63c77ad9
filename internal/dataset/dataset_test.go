package dataset

import (
	"math"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "gender", Kind: Categorical, Values: []string{"female", "male"}},
		Attribute{Name: "seniority", Kind: Ordinal, Values: []string{"junior", "senior", "very senior"}},
		Attribute{Name: "pubs", Kind: Numeric, Values: []string{"low", "mid", "high"}, Bins: []float64{10, 100}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attribute
		want  string
	}{
		{"empty name", []Attribute{{Name: "", Values: []string{"x"}}}, "empty name"},
		{"dup attr", []Attribute{
			{Name: "a", Values: []string{"x"}},
			{Name: "a", Values: []string{"y"}},
		}, "duplicate attribute"},
		{"empty domain", []Attribute{{Name: "a"}}, "empty domain"},
		{"dup value", []Attribute{{Name: "a", Values: []string{"x", "x"}}}, "duplicate value"},
		{"bad bins", []Attribute{{Name: "a", Kind: Numeric, Values: []string{"l", "h"}, Bins: []float64{1, 2}}}, "len(Bins)"},
		{"unsorted bins", []Attribute{{Name: "a", Kind: Numeric, Values: []string{"l", "m", "h"}, Bins: []float64{5, 1}}}, "unsorted"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSchema(c.attrs...)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestAttrValueIndex(t *testing.T) {
	s := testSchema(t)
	a := &s.Attrs[0]
	if got := a.ValueIndex("male"); got != 1 {
		t.Fatalf("ValueIndex(male) = %d, want 1", got)
	}
	if got := a.ValueIndex("other"); got != -1 {
		t.Fatalf("ValueIndex(other) = %d, want -1", got)
	}
}

func TestBinIndex(t *testing.T) {
	s := testSchema(t)
	pubs := &s.Attrs[2]
	cases := []struct {
		x    float64
		want int
	}{{0, 0}, {10, 0}, {10.5, 1}, {100, 1}, {101, 2}, {1e9, 2}, {-5, 0}}
	for _, c := range cases {
		if got := pubs.BinIndex(c.x); got != c.want {
			t.Errorf("BinIndex(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestBinIndexNonNumericPanics(t *testing.T) {
	s := testSchema(t)
	defer func() {
		if recover() == nil {
			t.Fatal("BinIndex on categorical did not panic")
		}
	}()
	s.Attrs[0].BinIndex(1)
}

func buildSmall(t *testing.T) *Dataset {
	t.Helper()
	b := NewBuilder(testSchema(t))
	b.AddUser("alice", map[string]string{"gender": "female", "seniority": "very senior"})
	b.AddUser("bob", map[string]string{"gender": "male", "seniority": "junior"})
	b.AddUserBinned("carol", map[string]string{"gender": "female"}, map[string]float64{"pubs": 325})
	b.AddAction("alice", "book1", 5, 0)
	b.AddAction("alice", "book2", 4, 0)
	b.AddAction("bob", "book1", 2, 0)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuilderBasics(t *testing.T) {
	d := buildSmall(t)
	if d.NumUsers() != 3 || d.NumItems() != 2 || d.NumActions() != 3 {
		t.Fatalf("counts = %d/%d/%d, want 3/2/3", d.NumUsers(), d.NumItems(), d.NumActions())
	}
	if got := d.UserIndex("alice"); got != 0 {
		t.Fatalf("UserIndex(alice) = %d", got)
	}
	if got := d.UserIndex("nobody"); got != -1 {
		t.Fatalf("UserIndex(nobody) = %d, want -1", got)
	}
	if got := d.ItemIndex("book2"); got != 1 {
		t.Fatalf("ItemIndex(book2) = %d", got)
	}
	if got := len(d.UserActions(0)); got != 2 {
		t.Fatalf("alice has %d actions, want 2", got)
	}
	if got := d.UserActions(99); got != nil {
		t.Fatalf("out-of-range UserActions = %v, want nil", got)
	}
}

func TestBuilderBinned(t *testing.T) {
	d := buildSmall(t)
	v, ok := d.DemoValue(2, 2)
	if !ok || v != "high" {
		t.Fatalf("carol pubs = %q/%v, want high/true", v, ok)
	}
	// carol's seniority is missing
	if _, ok := d.DemoValue(2, 1); ok {
		t.Fatal("carol seniority should be missing")
	}
}

func TestBuilderErrors(t *testing.T) {
	s := testSchema(t)

	b := NewBuilder(s)
	b.AddUser("x", map[string]string{"nosuch": "v"})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unknown attribute") {
		t.Fatalf("err = %v", err)
	}

	b = NewBuilder(s)
	b.AddUser("x", map[string]string{"gender": "robot"})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "out-of-domain") {
		t.Fatalf("err = %v", err)
	}

	b = NewBuilder(s)
	b.AddUser("x", nil)
	b.AddUser("x", nil)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate user") {
		t.Fatalf("err = %v", err)
	}

	b = NewBuilder(s)
	b.AddAction("ghost", "item", 1, 0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unknown user") {
		t.Fatalf("err = %v", err)
	}

	b = NewBuilder(s)
	b.AddUser("x", nil)
	b.AddActionByIndex(5, 0, 1, 0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "invalid user index") {
		t.Fatalf("err = %v", err)
	}
}

func TestErrorsSticky(t *testing.T) {
	b := NewBuilder(testSchema(t))
	b.AddUser("", nil) // error
	idx := b.AddUser("ok", nil)
	if idx != -1 {
		t.Fatalf("AddUser after error = %d, want -1", idx)
	}
	if b.Err() == nil {
		t.Fatal("Err() = nil after failure")
	}
}

func TestDistribution(t *testing.T) {
	d := buildSmall(t)
	dist := d.Distribution(0, nil) // gender over all
	if dist.Total != 3 || dist.Missing != 0 {
		t.Fatalf("total/missing = %d/%d", dist.Total, dist.Missing)
	}
	if dist.Counts[0] != 2 || dist.Counts[1] != 1 {
		t.Fatalf("counts = %v", dist.Counts)
	}
	if got := dist.Fraction(0); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Fraction(female) = %v", got)
	}

	sub := d.Distribution(1, []int{0, 2}) // seniority over alice+carol
	if sub.Missing != 1 {
		t.Fatalf("missing = %d, want 1 (carol)", sub.Missing)
	}
}

func TestValueHistogram(t *testing.T) {
	d := buildSmall(t)
	bins := d.ValueHistogram(1, 5, nil)
	// values 5,4,2 → bins[4]=1, bins[3]=1, bins[1]=1
	if bins[4] != 1 || bins[3] != 1 || bins[1] != 1 || bins[0] != 0 {
		t.Fatalf("bins = %v", bins)
	}
	only := d.ValueHistogram(1, 5, []int{1}) // bob: one rating of 2
	if only[1] != 1 || only[4] != 0 {
		t.Fatalf("bob bins = %v", only)
	}
	// clamping
	b2 := NewBuilder(testSchema(t))
	b2.AddUser("u", nil)
	b2.AddAction("u", "i", 99, 0)
	b2.AddAction("u", "i", -7, 0)
	dd, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	cl := dd.ValueHistogram(1, 5, nil)
	if cl[4] != 1 || cl[0] != 1 {
		t.Fatalf("clamped bins = %v", cl)
	}
}

func TestActivityAndMeans(t *testing.T) {
	d := buildSmall(t)
	act := d.ActivityCount()
	if act[0] != 2 || act[1] != 1 || act[2] != 0 {
		t.Fatalf("activity = %v", act)
	}
}

func TestTopItems(t *testing.T) {
	d := buildSmall(t)
	top := d.TopItems(5)
	if len(top) != 2 || top[0] != 0 {
		t.Fatalf("TopItems = %v, want [0 1] (book1 has 2 actions)", top)
	}
	if got := d.TopItems(1); len(got) != 1 {
		t.Fatalf("TopItems(1) len = %d", len(got))
	}
}
