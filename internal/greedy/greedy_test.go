package greedy

import (
	"math"
	"testing"
	"time"

	"vexus/internal/bitset"
	"vexus/internal/feedback"
	"vexus/internal/groups"
	"vexus/internal/index"
	"vexus/internal/rng"
)

// fixture builds a space of n random groups over u users plus its index.
func fixture(t testing.TB, seed uint64, u, n int) (*groups.Space, *index.Index) {
	t.Helper()
	r := rng.New(seed)
	v := groups.NewVocab()
	gs := make([]*groups.Group, 0, n)
	for i := 0; i < n; i++ {
		id := v.Intern("t", string(rune('A'+i%26))+string(rune('a'+i/26)))
		members := bitset.New(u)
		size := 2 + r.Intn(u/3)
		for _, m := range r.SampleWithoutReplacement(u, size) {
			members.Add(m)
		}
		gs = append(gs, &groups.Group{Desc: groups.NewDescription(id), Members: members})
	}
	s, err := groups.NewSpace(u, v, gs)
	if err != nil {
		t.Fatal(err)
	}
	return s, index.New(s)
}

func TestSelectNextBasic(t *testing.T) {
	s, ix := fixture(t, 1, 60, 30)
	o := New(s, ix)
	cfg := DefaultConfig()
	cfg.K = 5
	sel, err := o.SelectNext(s.Group(0), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.IDs) != 5 {
		t.Fatalf("selected %d groups, want 5", len(sel.IDs))
	}
	seen := map[int]bool{}
	for _, id := range sel.IDs {
		if id == 0 {
			t.Fatal("focal group selected as its own neighbor")
		}
		if seen[id] {
			t.Fatal("duplicate selection")
		}
		seen[id] = true
	}
	if sel.Coverage < 0 || sel.Coverage > 1 || sel.Diversity < 0 || sel.Diversity > 1 {
		t.Fatalf("objectives out of range: %+v", sel)
	}
	if sel.Objective <= 0 {
		t.Fatalf("objective = %v", sel.Objective)
	}
}

func TestSelectNextValidation(t *testing.T) {
	s, ix := fixture(t, 2, 20, 8)
	o := New(s, ix)
	if _, err := o.SelectNext(s.Group(0), nil, Config{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	for _, w := range []weights{{-0.5, 0.5, 0}, {0.5, -0.5, 0}, {math.NaN(), 0.5, 0}} {
		if _, err := o.SelectNext(s.Group(0), nil, w.apply(DefaultConfig())); err == nil {
			t.Fatalf("weights %v accepted", w)
		}
	}
	if _, err := o.SelectNext(s.Group(0), nil, weights{0, 0, -1}.apply(DefaultConfig())); err != nil {
		t.Fatalf("negative FeedbackWeight refused: %v", err)
	}
}

func TestSelectNextNoCandidates(t *testing.T) {
	// Two disjoint groups: no neighbor passes the similarity bound.
	v := groups.NewVocab()
	a := v.Intern("t", "a")
	b := v.Intern("t", "b")
	gs := []*groups.Group{
		{Desc: groups.NewDescription(a), Members: bitset.FromIndices(10, []int{0, 1})},
		{Desc: groups.NewDescription(b), Members: bitset.FromIndices(10, []int{5, 6})},
	}
	s, err := groups.NewSpace(10, v, gs)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := New(s, index.New(s)).SelectNext(s.Group(0), nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.IDs) != 0 || sel.Candidates != 0 {
		t.Fatalf("selection from isolated group: %+v", sel)
	}
}

func TestMinSimilarityBound(t *testing.T) {
	s, ix := fixture(t, 3, 60, 30)
	o := New(s, ix)
	cfg := DefaultConfig()
	cfg.MinSimilarity = 0.3
	sel, err := o.SelectNext(s.Group(0), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	focal := s.Group(0)
	for _, id := range sel.IDs {
		if sim := focal.Jaccard(s.Group(id)); sim < 0.3 {
			t.Fatalf("group %d below similarity bound: %v", id, sim)
		}
	}
}

func TestFewerCandidatesThanK(t *testing.T) {
	s, ix := fixture(t, 4, 30, 5)
	o := New(s, ix)
	cfg := DefaultConfig()
	cfg.K = 100
	sel, err := o.SelectNext(s.Group(0), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.IDs) == 0 || len(sel.IDs) > 4 {
		t.Fatalf("selected %d of 4 possible", len(sel.IDs))
	}
}

func TestZeroBudgetStillReturnsK(t *testing.T) {
	// P3 safety: the greedy construction always completes, so even a
	// zero time budget yields a full answer (just unpolished).
	s, ix := fixture(t, 5, 80, 40)
	o := New(s, ix)
	cfg := DefaultConfig()
	cfg.TimeLimit = 0
	sel, err := o.SelectNext(s.Group(0), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.IDs) != cfg.K {
		t.Fatalf("selected %d, want %d", len(sel.IDs), cfg.K)
	}
	if sel.SwapRounds != 0 {
		t.Fatalf("local search ran with zero budget: %d rounds", sel.SwapRounds)
	}
}

func TestMoreBudgetNeverWorse(t *testing.T) {
	// The anytime property: the objective is non-decreasing in budget
	// (same pool, deterministic greedy start, improving swaps only).
	// The clock advances one microsecond per reading, so a budget is a
	// fixed number of deadline checks and a loaded machine cannot cut
	// the 1 ms run's greedy construction short.
	s, ix := fixture(t, 6, 120, 60)
	o := New(s, ix)
	var ticks time.Duration
	o.now = func() time.Time {
		ticks += time.Microsecond
		return time.Unix(0, 0).Add(ticks)
	}
	base := DefaultConfig()
	base.K = 6
	budgets := []time.Duration{0, time.Millisecond, 50 * time.Millisecond, 500 * time.Millisecond}
	prev := -1.0
	for _, b := range budgets {
		cfg := base
		cfg.TimeLimit = b
		sel, err := o.SelectNext(s.Group(0), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Objective < prev-1e-9 {
			t.Fatalf("budget %v objective %v < previous %v", b, sel.Objective, prev)
		}
		prev = sel.Objective
	}
}

func TestGreedyNearExhaustive(t *testing.T) {
	// On a small pool the polished greedy answer must come close to
	// the exhaustive optimum (the E1 measurement in miniature).
	s, ix := fixture(t, 7, 50, 14)
	o := New(s, ix)
	cfg := DefaultConfig()
	cfg.K = 4
	cfg.FeedbackWeight = 0 // exhaustive runs without feedback
	cfg.TimeLimit = 2 * time.Second

	opt, err := o.ExhaustiveSelect(0, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.SelectNext(s.Group(0), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Objective < 0.9*opt.Objective {
		t.Fatalf("greedy %v << exhaustive %v", got.Objective, opt.Objective)
	}
}

func TestExhaustiveBudgetGuard(t *testing.T) {
	s, ix := fixture(t, 8, 100, 50)
	o := New(s, ix)
	cfg := DefaultConfig()
	cfg.K = 10
	if _, err := o.ExhaustiveSelect(0, cfg, 1000); err == nil {
		t.Fatal("combinatorial blow-up not caught")
	}
}

func TestFeedbackBiasesSelection(t *testing.T) {
	s, ix := fixture(t, 9, 100, 40)
	o := New(s, ix)
	cfg := DefaultConfig()
	cfg.K = 3
	cfg.FeedbackWeight = 5 // exaggerate personalization for the test

	neutral, err := o.SelectNext(s.Group(0), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(neutral.IDs) == 0 {
		t.Skip("no candidates")
	}
	// Reinforce a candidate that the neutral run did NOT pick.
	nbs := ix.Neighbors(0, 30)
	var target int = -1
	chosen := map[int]bool{}
	for _, id := range neutral.IDs {
		chosen[id] = true
	}
	for _, nb := range nbs {
		if !chosen[int(nb.ID)] {
			target = int(nb.ID)
			break
		}
	}
	if target < 0 {
		t.Skip("all candidates already selected")
	}
	fb := feedback.New()
	for i := 0; i < 5; i++ {
		fb.Reinforce(s.Group(target), 1)
	}
	biased, err := o.SelectNext(s.Group(0), fb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range biased.IDs {
		if id == target {
			found = true
		}
	}
	if !found {
		t.Fatalf("reinforced group %d not selected: %v (feedback %v)",
			target, biased.IDs, biased.Feedback)
	}
}

func TestDeterminism(t *testing.T) {
	s, ix := fixture(t, 10, 80, 40)
	o := New(s, ix)
	cfg := DefaultConfig()
	cfg.TimeLimit = 0 // greedy phase only: strictly deterministic
	a, err := o.SelectNext(s.Group(3), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.SelectNext(s.Group(3), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.IDs) != len(b.IDs) {
		t.Fatal("non-deterministic size")
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			t.Fatalf("non-deterministic pick %d: %d vs %d", i, a.IDs[i], b.IDs[i])
		}
	}
}

func TestNextCombination(t *testing.T) {
	idx := []int{0, 1}
	var all [][2]int
	for {
		all = append(all, [2]int{idx[0], idx[1]})
		if !nextCombination(idx, 4) {
			break
		}
	}
	if len(all) != 6 { // C(4,2)
		t.Fatalf("enumerated %d combinations: %v", len(all), all)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{4, 2, 6}, {10, 3, 120}, {5, 0, 1}, {5, 5, 1}, {3, 5, 0},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("C(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	if binomial(300, 150) != -1 {
		t.Fatal("overflow not detected")
	}
}
