package groups

import (
	"math"
	"testing"
	"testing/quick"

	"vexus/internal/bitset"
)

func TestVocabIntern(t *testing.T) {
	v := NewVocab()
	a := v.Intern("gender", "female")
	b := v.Intern("gender", "male")
	c := v.Intern("gender", "female")
	if a != c {
		t.Fatalf("re-intern gave %d, want %d", c, a)
	}
	if a == b {
		t.Fatal("distinct terms share id")
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d", v.Len())
	}
	if got := v.Term(a); got.Field != "gender" || got.Value != "female" {
		t.Fatalf("Term = %+v", got)
	}
	if got := v.Lookup("gender", "male"); got != b {
		t.Fatalf("Lookup = %d, want %d", got, b)
	}
	if got := v.Lookup("gender", "robot"); got != -1 {
		t.Fatalf("Lookup missing = %d, want -1", got)
	}
}

func TestVocabFields(t *testing.T) {
	v := NewVocab()
	v.Intern("gender", "f")
	v.Intern("country", "fr")
	v.Intern("gender", "m")
	if got := v.TermsOfField("gender"); len(got) != 2 {
		t.Fatalf("TermsOfField(gender) = %v", got)
	}
	if got := v.TermsOfField("nosuch"); got != nil {
		t.Fatalf("TermsOfField(nosuch) = %v", got)
	}
}

func TestTermString(t *testing.T) {
	if got := (Term{"a", "b"}).String(); got != "a=b" {
		t.Fatalf("String = %q", got)
	}
}

func TestDescriptionCanonical(t *testing.T) {
	d := NewDescription(5, 2, 5, 1)
	if len(d) != 3 || d[0] != 1 || d[1] != 2 || d[2] != 5 {
		t.Fatalf("canonical = %v", d)
	}
	if !d.Contains(2) || d.Contains(3) {
		t.Fatal("Contains broken")
	}
}

func TestDescriptionSubsumes(t *testing.T) {
	small := NewDescription(1, 3)
	big := NewDescription(1, 2, 3)
	if !small.Subsumes(big) {
		t.Fatal("small should subsume big")
	}
	if big.Subsumes(small) {
		t.Fatal("big should not subsume small")
	}
	if !NewDescription().Subsumes(big) {
		t.Fatal("empty should subsume everything")
	}
	if !big.Subsumes(big) {
		t.Fatal("self subsumption")
	}
}

func TestDescriptionKeyAndLabel(t *testing.T) {
	v := NewVocab()
	f := v.Intern("gender", "female")
	w := v.Intern("topic", "web search")
	d := NewDescription(w, f)
	if d.Key() != "0,1" && d.Key() != "1,0" {
		// canonical sort ascending: f=0, w=1 → "0,1"
		t.Fatalf("Key = %q", d.Key())
	}
	label := d.Label(v)
	if label != "gender=female ∧ topic=web search" {
		t.Fatalf("Label = %q", label)
	}
	if NewDescription().Label(v) != "⟨all users⟩" {
		t.Fatal("empty label")
	}
}

func mk(n int, members ...int) *bitset.Set {
	return bitset.FromIndices(n, members)
}

func newTestSpace(t *testing.T) *Space {
	t.Helper()
	v := NewVocab()
	a := v.Intern("g", "a")
	b := v.Intern("g", "b")
	c := v.Intern("c", "x")
	gs := []*Group{
		{Desc: NewDescription(a), Members: mk(10, 0, 1, 2, 3)},
		{Desc: NewDescription(b), Members: mk(10, 4, 5, 6)},
		{Desc: NewDescription(c), Members: mk(10, 2, 3, 4)},
		{Desc: NewDescription(a, c), Members: mk(10, 2, 3)},
	}
	s, err := NewSpace(10, v, gs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpaceBasics(t *testing.T) {
	s := newTestSpace(t)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Group(2).ID != 2 {
		t.Fatal("id assignment")
	}
	if got := s.ByDescription(s.Group(3).Desc); got == nil || got.ID != 3 {
		t.Fatalf("ByDescription = %v", got)
	}
	if got := s.ByDescription(NewDescription(99)); got != nil {
		t.Fatalf("missing description = %v", got)
	}
}

func TestSpaceRejectsDuplicates(t *testing.T) {
	v := NewVocab()
	a := v.Intern("g", "a")
	gs := []*Group{
		{Desc: NewDescription(a), Members: mk(5, 0)},
		{Desc: NewDescription(a), Members: mk(5, 1)},
	}
	if _, err := NewSpace(5, v, gs); err == nil {
		t.Fatal("duplicate description accepted")
	}
}

func TestSpaceRejectsUniverseMismatch(t *testing.T) {
	v := NewVocab()
	a := v.Intern("g", "a")
	gs := []*Group{{Desc: NewDescription(a), Members: mk(5, 0)}}
	if _, err := NewSpace(10, v, gs); err == nil {
		t.Fatal("universe mismatch accepted")
	}
}

func TestGroupsOfUser(t *testing.T) {
	s := newTestSpace(t)
	got := s.GroupsOfUser(2)
	if len(got) != 3 { // groups 0, 2, 3 contain user 2
		t.Fatalf("GroupsOfUser(2) = %v", got)
	}
	if s.GroupsOfUser(-1) != nil || s.GroupsOfUser(100) != nil {
		t.Fatal("out-of-range should be nil")
	}
}

func TestOverlapsAndJaccard(t *testing.T) {
	s := newTestSpace(t)
	// J({0,1,2,3},{2,3,4}) = 2/5
	if got := s.Group(0).Jaccard(s.Group(2)); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("Jaccard = %v", got)
	}
}

func TestSortBySize(t *testing.T) {
	s := newTestSpace(t)
	ids := []int{3, 1, 0, 2}
	s.SortBySize(ids)
	if ids[0] != 0 || ids[len(ids)-1] != 3 {
		t.Fatalf("SortBySize = %v", ids)
	}
}

func TestComputeStats(t *testing.T) {
	s := newTestSpace(t)
	st := s.ComputeStats()
	if st.NumGroups != 4 || st.NumUsers != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MinSize != 2 || st.MaxSize != 4 {
		t.Fatalf("min/max = %d/%d", st.MinSize, st.MaxSize)
	}
	if math.Abs(st.Coverage-0.7) > 1e-12 { // users 0..6
		t.Fatalf("coverage = %v", st.Coverage)
	}
	empty, err := NewSpace(5, NewVocab(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.ComputeStats(); got.NumGroups != 0 {
		t.Fatalf("empty stats = %+v", got)
	}
}

func TestPropSubsumptionMembers(t *testing.T) {
	// If description A subsumes description B, any group set built from
	// term-extension must satisfy members(B) ⊆ members(A). We verify the
	// combinatorial property of Subsumes over term extension here.
	f := func(raw []int16) bool {
		ids := make([]TermID, 0, len(raw))
		for _, r := range raw {
			if r >= 0 {
				ids = append(ids, TermID(r%50))
			}
		}
		d := NewDescription(ids...)
		ext := NewDescription(append(ids, 7)...)
		return d.Subsumes(ext) && (ext.Subsumes(d) == d.Contains(7))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
