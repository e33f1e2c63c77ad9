package etl

import (
	"bytes"
	"strings"
	"testing"

	"vexus/internal/dataset"
)

func schema(t *testing.T) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.Attribute{Name: "gender", Kind: dataset.Categorical, Values: []string{"female", "male"}},
		dataset.Attribute{Name: "country", Kind: dataset.Categorical, Values: []string{"fr", "br", "us"}},
	)
}

func TestCleanField(t *testing.T) {
	r := DefaultRules()
	cases := []struct {
		in     string
		want   string
		wantOK bool
	}{
		{"  Male ", "male", true},
		{"NULL", "", false},
		{"n/a", "", false},
		{"?", "", false},
		{"", "", false},
		{"Paris", "paris", true},
	}
	for _, c := range cases {
		got, ok := r.CleanField(c.in)
		if got != c.want || ok != c.wantOK {
			t.Errorf("CleanField(%q) = %q,%v want %q,%v", c.in, got, ok, c.want, c.wantOK)
		}
	}
}

func TestCleanFieldNoFold(t *testing.T) {
	r := CleanRules{TrimSpace: true}
	got, ok := r.CleanField(" Male ")
	if !ok || got != "Male" {
		t.Fatalf("got %q,%v", got, ok)
	}
}

func TestCleanValue(t *testing.T) {
	r := CleanRules{MinValue: 1, MaxValue: 5}
	if _, ok := r.CleanValue("abc"); ok {
		t.Fatal("unparseable accepted")
	}
	if _, ok := r.CleanValue("7"); ok {
		t.Fatal("out-of-range accepted without clamp")
	}
	r.ClampValues = true
	if v, ok := r.CleanValue("7"); !ok || v != 5 {
		t.Fatalf("clamped = %v,%v", v, ok)
	}
	if v, ok := r.CleanValue("-2"); !ok || v != 1 {
		t.Fatalf("clamped low = %v,%v", v, ok)
	}
	unbounded := CleanRules{}
	if v, ok := unbounded.CleanValue(" 3.5 "); !ok || v != 3.5 {
		t.Fatalf("unbounded = %v,%v", v, ok)
	}
}

const usersCSV = `user,gender,country
alice,Female,fr
bob,male,
carol,NULL,br
,male,us
dave,robot,us
`

func TestLoadUsers(t *testing.T) {
	s := schema(t)
	b := dataset.NewBuilder(s)
	rep, err := LoadUsers(strings.NewReader(usersCSV), b, s, DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsRead != 5 {
		t.Fatalf("RowsRead = %d", rep.RowsRead)
	}
	// empty-id row dropped
	if rep.RowsKept != 4 || rep.RowsDropped != 1 {
		t.Fatalf("kept/dropped = %d/%d", rep.RowsKept, rep.RowsDropped)
	}
	if rep.OutOfDomain != 1 { // "robot"
		t.Fatalf("OutOfDomain = %d", rep.OutOfDomain)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 4 {
		t.Fatalf("users = %d", d.NumUsers())
	}
	if v, ok := d.DemoValue(d.UserIndex("alice"), 0); !ok || v != "female" {
		t.Fatalf("alice gender = %q,%v", v, ok)
	}
	if _, ok := d.DemoValue(d.UserIndex("carol"), 0); ok {
		t.Fatal("carol gender should be missing (NULL)")
	}
	if _, ok := d.DemoValue(d.UserIndex("dave"), 0); ok {
		t.Fatal("dave gender should be missing (out of domain)")
	}
}

func TestLoadUsersBadHeader(t *testing.T) {
	s := schema(t)
	b := dataset.NewBuilder(s)
	if _, err := LoadUsers(strings.NewReader("id,gender\n"), b, s, DefaultRules()); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := LoadUsers(strings.NewReader("user,height\n"), b, s, DefaultRules()); err == nil {
		t.Fatal("unknown column accepted")
	}
}

const actionsCSV = `user,item,value,ts
alice,b1,5,100
alice,b1,4,200
alice,b2,abc,0
bob,b1,3,300
ghost,b9,1,0
alice,,2,0
`

func TestLoadActions(t *testing.T) {
	s := schema(t)
	b := dataset.NewBuilder(s)
	b.AddUser("alice", nil)
	b.AddUser("bob", nil)
	known := func(id string) bool { return b != nil && (id == "alice" || id == "bob") }
	rep, err := LoadActions(strings.NewReader(actionsCSV), b, known, DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsRead != 6 {
		t.Fatalf("RowsRead = %d", rep.RowsRead)
	}
	if rep.DuplicateRows != 1 {
		t.Fatalf("DuplicateRows = %d", rep.DuplicateRows)
	}
	if rep.BadValue != 1 {
		t.Fatalf("BadValue = %d", rep.BadValue)
	}
	if rep.UnknownUsers != 1 {
		t.Fatalf("UnknownUsers = %d", rep.UnknownUsers)
	}
	if rep.MissingFields != 1 { // empty item id
		t.Fatalf("MissingFields = %d", rep.MissingFields)
	}
	if rep.RowsKept != 2 {
		t.Fatalf("RowsKept = %d", rep.RowsKept)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumActions() != 2 {
		t.Fatalf("actions = %d", d.NumActions())
	}
	if d.Actions[0].Time != 100 {
		t.Fatalf("ts = %d", d.Actions[0].Time)
	}
}

func TestLoadActionsKeepDuplicates(t *testing.T) {
	s := schema(t)
	b := dataset.NewBuilder(s)
	b.AddUser("alice", nil)
	rules := DefaultRules()
	rules.DropDuplicateActions = false
	csv := "user,item,value\nalice,b1,5\nalice,b1,4\n"
	rep, err := LoadActions(strings.NewReader(csv), b, func(string) bool { return true }, rules)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsKept != 2 || rep.DuplicateRows != 0 {
		t.Fatalf("kept/dup = %d/%d", rep.RowsKept, rep.DuplicateRows)
	}
}

func TestRoundTrip(t *testing.T) {
	s := schema(t)
	b := dataset.NewBuilder(s)
	b.AddUser("alice", map[string]string{"gender": "female", "country": "fr"})
	b.AddUser("bob", map[string]string{"gender": "male"})
	b.AddAction("alice", "b1", 5, 42)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var ubuf, abuf bytes.Buffer
	if err := WriteUsers(&ubuf, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteActions(&abuf, d); err != nil {
		t.Fatal(err)
	}

	b2 := dataset.NewBuilder(s)
	if _, err := LoadUsers(bytes.NewReader(ubuf.Bytes()), b2, s, DefaultRules()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadActions(bytes.NewReader(abuf.Bytes()), b2, func(id string) bool {
		return id == "alice" || id == "bob"
	}, DefaultRules()); err != nil {
		t.Fatal(err)
	}
	d2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumUsers() != 2 || d2.NumActions() != 1 {
		t.Fatalf("round trip users/actions = %d/%d", d2.NumUsers(), d2.NumActions())
	}
	if v, _ := d2.DemoValue(0, 1); v != "fr" {
		t.Fatalf("alice country = %q", v)
	}
	if d2.Actions[0].Time != 42 {
		t.Fatalf("ts lost: %d", d2.Actions[0].Time)
	}
}

const inferCSV = `user,gender,age,city
u1,F,23,paris
u2,M,31,lyon
u3,F,45,paris
u4,M,52,grenoble
u5,F,19,paris
u6,M,64,nice
u7,F,38,lyon
u8,M,27,paris
`

func TestInferSchema(t *testing.T) {
	opts := DefaultInferOptions()
	opts.MaxCategorical = 3
	opts.NumericBins = 3
	opts.MaxDomain = 3
	s, rep, err := InferSchema(strings.NewReader(inferCSV), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InferredAttrs != 3 {
		t.Fatalf("InferredAttrs = %d", rep.InferredAttrs)
	}
	gi := s.AttrIndex("gender")
	if gi < 0 || s.Attrs[gi].Kind != dataset.Categorical || len(s.Attrs[gi].Values) != 2 {
		t.Fatalf("gender attr = %+v", s.Attrs[gi])
	}
	ai := s.AttrIndex("age")
	if ai < 0 || s.Attrs[ai].Kind != dataset.Numeric {
		t.Fatalf("age attr = %+v", s.Attrs[ai])
	}
	if len(s.Attrs[ai].Values) < 2 {
		t.Fatalf("age bins = %v", s.Attrs[ai].Values)
	}
	ci := s.AttrIndex("city")
	if ci < 0 {
		t.Fatal("city missing")
	}
	city := s.Attrs[ci]
	if city.ValueIndex("other") < 0 {
		t.Fatalf("city domain lacks other: %v", city.Values)
	}
	if city.ValueIndex("paris") < 0 {
		t.Fatalf("most frequent city not retained: %v", city.Values)
	}
}

func TestInferEmptyColumn(t *testing.T) {
	csv := "user,ghost\nu1,\nu2,NULL\n"
	s, _, err := InferSchema(strings.NewReader(csv), DefaultInferOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := s.Attrs[s.AttrIndex("ghost")]
	if len(g.Values) != 1 || g.Values[0] != "unknown" {
		t.Fatalf("ghost domain = %v", g.Values)
	}
}
