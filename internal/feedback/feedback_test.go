package feedback

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"vexus/internal/bitset"
	"vexus/internal/groups"
	"vexus/internal/rng"
)

func grp(n int, desc groups.Description, members ...int) *groups.Group {
	return &groups.Group{Desc: desc, Members: bitset.FromIndices(n, members)}
}

func TestEmptyVector(t *testing.T) {
	v := New()
	if !v.IsEmpty() {
		t.Fatal("new vector not empty")
	}
	if v.Mass() != 0 {
		t.Fatalf("Mass = %v", v.Mass())
	}
	g := grp(10, groups.NewDescription(1), 0, 1)
	if v.Alignment(g) != 0 {
		t.Fatal("empty profile should score 0")
	}
}

func TestReinforceNormalizes(t *testing.T) {
	v := New()
	g := grp(10, groups.NewDescription(1, 2), 0, 1, 2)
	v.Reinforce(g, 1)
	if math.Abs(v.Mass()-1) > 1e-12 {
		t.Fatalf("Mass = %v, want 1", v.Mass())
	}
	// 3 users + 2 terms, equal raw weight → each 1/5.
	if math.Abs(v.UserScore(0)-0.2) > 1e-12 {
		t.Fatalf("UserScore = %v", v.UserScore(0))
	}
	if math.Abs(v.TermScore(1)-0.2) > 1e-12 {
		t.Fatalf("TermScore = %v", v.TermScore(1))
	}
	if v.UserScore(9) != 0 {
		t.Fatal("unrelated user scored")
	}
}

func TestReinforceZeroWeightNoOp(t *testing.T) {
	v := New()
	v.Reinforce(grp(5, groups.NewDescription(0), 0), 0)
	if !v.IsEmpty() {
		t.Fatal("zero weight reinforced")
	}
	v.Reinforce(grp(5, groups.NewDescription(0), 0), -1)
	if !v.IsEmpty() {
		t.Fatal("negative weight reinforced")
	}
}

func TestRepeatedReinforcementBiases(t *testing.T) {
	v := New()
	a := grp(10, groups.NewDescription(1), 0, 1)
	b := grp(10, groups.NewDescription(2), 8, 9)
	v.Reinforce(a, 1)
	v.Reinforce(a, 1)
	v.Reinforce(b, 1)
	if v.TermScore(1) <= v.TermScore(2) {
		t.Fatalf("term 1 (%v) should outweigh term 2 (%v)",
			v.TermScore(1), v.TermScore(2))
	}
	// "users and demographics that do not get rewarded will gradually
	// end up with a lower score tending to zero" — relative decay.
	if v.Alignment(a) <= v.Alignment(b) {
		t.Fatal("repeatedly chosen group should align higher")
	}
}

func TestUnlearn(t *testing.T) {
	v := New()
	g := grp(10, groups.NewDescription(1, 2), 0, 1)
	v.Reinforce(g, 1)
	before := v.TermScore(2)
	if before <= 0 {
		t.Fatal("precondition")
	}
	v.Unlearn(1)
	if v.TermScore(1) != 0 {
		t.Fatal("unlearned term still scored")
	}
	if math.Abs(v.Mass()-1) > 1e-12 {
		t.Fatalf("Mass after unlearn = %v", v.Mass())
	}
	// Unlearned terms must not be re-learned implicitly.
	v.Reinforce(g, 1)
	if v.TermScore(1) != 0 {
		t.Fatal("unlearned term re-learned by Reinforce")
	}
}

func TestUnlearnUser(t *testing.T) {
	v := New()
	g := grp(10, groups.NewDescription(1), 0, 1)
	v.Reinforce(g, 1)
	v.UnlearnUser(0)
	if v.UserScore(0) != 0 {
		t.Fatal("unlearned user still scored")
	}
	v.Reinforce(g, 1)
	if v.UserScore(0) != 0 {
		t.Fatal("unlearned user re-learned")
	}
	if v.UserScore(1) == 0 {
		t.Fatal("other user lost")
	}
}

func TestUnlearnEverythingThenReinforce(t *testing.T) {
	v := New()
	g := grp(4, groups.NewDescription(1), 0)
	v.Reinforce(g, 1)
	v.Unlearn(1)
	v.UnlearnUser(0)
	if v.Mass() != 0 {
		t.Fatalf("Mass = %v, want 0", v.Mass())
	}
	// A different group can still be learned.
	h := grp(4, groups.NewDescription(2), 1)
	v.Reinforce(h, 1)
	if math.Abs(v.Mass()-1) > 1e-12 {
		t.Fatalf("Mass = %v", v.Mass())
	}
}

func TestAlignmentOrdersCandidates(t *testing.T) {
	v := New()
	chosen := grp(20, groups.NewDescription(1, 2), 0, 1, 2, 3)
	v.Reinforce(chosen, 1)
	similar := grp(20, groups.NewDescription(1), 0, 1, 10)
	unrelated := grp(20, groups.NewDescription(9), 15, 16)
	if v.Alignment(similar) <= v.Alignment(unrelated) {
		t.Fatalf("alignment: similar %v <= unrelated %v",
			v.Alignment(similar), v.Alignment(unrelated))
	}
	if a := v.Alignment(similar); a < 0 || a > 1 {
		t.Fatalf("alignment out of [0,1]: %v", a)
	}
}

func TestTopOrderingAndTies(t *testing.T) {
	v := New()
	v.Reinforce(grp(10, groups.NewDescription(3, 5), 7), 1)
	top := v.Top(10)
	if len(top) != 3 {
		t.Fatalf("top = %d entries", len(top))
	}
	// Equal scores: terms before users, ascending ids.
	if top[0].IsUser || top[0].Term != 3 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].IsUser || top[1].Term != 5 {
		t.Fatalf("top[1] = %+v", top[1])
	}
	if !top[2].IsUser || top[2].User != 7 {
		t.Fatalf("top[2] = %+v", top[2])
	}
	if got := v.Top(1); len(got) != 1 {
		t.Fatalf("Top(1) = %d entries", len(got))
	}
	// n ≤ 0 asks for every entry, as TopUsers(m ≤ 0) does.
	for _, n := range []int{0, -1, -100} {
		if got := v.Top(n); !slices.Equal(got, top) {
			t.Fatalf("Top(%d) = %+v, want every entry %+v", n, got, top)
		}
	}
}

// TestTopUsersMatchesFullSort: selecting the top m users before
// sorting returns exactly the first m of a full sort, on random
// profiles whose reinforced groups overlap, so many users tie in mass.
func TestTopUsersMatchesFullSort(t *testing.T) {
	r := rng.New(19)
	for trial := 0; trial < 40; trial++ {
		n := 20 + r.Intn(400)
		v := New()
		for g, groupsN := 0, 1+r.Intn(8); g < groupsN; g++ {
			v.Reinforce(grp(n, groups.NewDescription(groups.TermID(g)),
				r.SampleWithoutReplacement(n, 1+r.Intn(n))...), float64(1+r.Intn(2)))
		}
		all := v.TopUsers(0)
		want := append([]UserMass(nil), all...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Mass != want[j].Mass {
				return want[i].Mass > want[j].Mass
			}
			return want[i].User < want[j].User
		})
		if !slices.Equal(all, want) {
			t.Fatalf("trial %d: TopUsers(0) is not the full sort", trial)
		}
		for _, m := range []int{1, 2, 7, 128, len(want) - 1, len(want), len(want) + 3} {
			k := len(want) // m ≤ 0 asks for every user
			if m > 0 && m < k {
				k = m
			}
			if got := v.TopUsers(m); !slices.Equal(got, want[:k]) {
				t.Fatalf("trial %d: TopUsers(%d) of %d users differs from the full sort's prefix", trial, m, len(want))
			}
		}
	}
}

func TestSnapshotIndependence(t *testing.T) {
	v := New()
	g := grp(10, groups.NewDescription(1), 0)
	v.Reinforce(g, 1)
	v.Unlearn(1)
	snap := v.Snapshot()
	v.Reinforce(grp(10, groups.NewDescription(2), 5), 1)
	if snap.TermScore(2) != 0 || snap.UserScore(5) != 0 {
		t.Fatal("snapshot mutated")
	}
	// Unlearn pins survive the snapshot.
	snap.Reinforce(g, 1)
	if snap.TermScore(1) != 0 {
		t.Fatal("snapshot lost unlearn pin")
	}
}

func TestString(t *testing.T) {
	v := New()
	v.Reinforce(grp(4, groups.NewDescription(1), 2), 1)
	if s := v.String(); s == "" || s[0] != 'f' {
		t.Fatalf("String = %q", s)
	}
}

// TestPropNormalizationInvariant: after any sequence of operations the
// vector's mass is 0 (empty) or 1 — the paper's "always kept
// normalized" invariant.
func TestPropNormalizationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(uint64(seed) + 1)
		v := New()
		for step := 0; step < 30; step++ {
			switch r.Intn(4) {
			case 0, 1:
				members := r.SampleWithoutReplacement(16, 1+r.Intn(5))
				g := grp(16, groups.NewDescription(groups.TermID(r.Intn(8))), members...)
				v.Reinforce(g, r.Float64()+0.01)
			case 2:
				v.Unlearn(groups.TermID(r.Intn(8)))
			case 3:
				v.UnlearnUser(r.Intn(16))
			}
			m := v.Mass()
			if !(m == 0 || math.Abs(m-1) < 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Mass returns the total normalized probability mass: 1 once any
// feedback exists, 0 before (the paper's "all scores add up to 1.0").
func (v *Vector) Mass() float64 {
	if v.total == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v.mass {
		sum += x
	}
	for _, x := range v.terms {
		sum += x
	}
	return sum / v.total
}
