package feedback

import (
	"math"
	"slices"
	"sort"
	"testing"

	"vexus/internal/bitset"
	"vexus/internal/groups"
)

// refVector is the profile's map-and-sort reference: the storage Vector
// had before its id-sorted slices, kept to pin the slices bit for bit.
// It differs from that storage in two places, both the specified
// behaviour: Top(n ≤ 0) returns every entry, and Alignment sums the
// users in ascending id order instead of map order.
type refVector struct {
	users          map[int]float64
	terms          map[groups.TermID]float64
	total          float64
	unlearnedTerms map[groups.TermID]bool
	unlearnedUsers map[int]bool
}

func newRef() *refVector {
	return &refVector{
		users:          make(map[int]float64),
		terms:          make(map[groups.TermID]float64),
		unlearnedTerms: make(map[groups.TermID]bool),
		unlearnedUsers: make(map[int]bool),
	}
}

func (v *refVector) IsEmpty() bool { return v.total == 0 }

func (v *refVector) Reinforce(g *groups.Group, weight float64) {
	if weight <= 0 {
		return
	}
	g.Members.Range(func(u int) bool {
		if !v.unlearnedUsers[u] {
			v.users[u] += weight
			v.total += weight
		}
		return true
	})
	for _, id := range g.Desc {
		if !v.unlearnedTerms[id] {
			v.terms[id] += weight
			v.total += weight
		}
	}
}

func (v *refVector) Unlearn(id groups.TermID) {
	v.total -= v.terms[id]
	delete(v.terms, id)
	v.unlearnedTerms[id] = true
}

func (v *refVector) UnlearnUser(u int) {
	v.total -= v.users[u]
	delete(v.users, u)
	v.unlearnedUsers[u] = true
}

func (v *refVector) UserScore(u int) float64 {
	if v.total == 0 {
		return 0
	}
	return v.users[u] / v.total
}

func (v *refVector) TermScore(id groups.TermID) float64 {
	if v.total == 0 {
		return 0
	}
	return v.terms[id] / v.total
}

func (v *refVector) Alignment(g *groups.Group) float64 {
	if v.total == 0 {
		return 0
	}
	score := 0.0
	for _, id := range g.Desc {
		score += v.terms[id]
	}
	users := make([]int, 0, len(v.users))
	for u := range v.users {
		users = append(users, u)
	}
	slices.Sort(users)
	for _, u := range users {
		if g.Members.Contains(u) {
			score += v.users[u]
		}
	}
	return score / v.total
}

func (v *refVector) TopUsers(m int) []UserMass {
	if v.total == 0 || len(v.users) == 0 {
		return nil
	}
	out := make([]UserMass, 0, len(v.users))
	for u, raw := range v.users {
		out = append(out, UserMass{User: u, Mass: raw / v.total})
	}
	sort.Slice(out, func(i, j int) bool { return compareUserMass(out[i], out[j]) < 0 })
	if m > 0 && m < len(out) {
		out = out[:m]
	}
	return out
}

func (v *refVector) Top(n int) []Entry {
	out := make([]Entry, 0, len(v.users)+len(v.terms))
	for id, s := range v.terms {
		out = append(out, Entry{Term: id, Score: s / v.total})
	}
	for u, s := range v.users {
		out = append(out, Entry{User: u, IsUser: true, Score: s / v.total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].IsUser != out[j].IsUser {
			return !out[i].IsUser
		}
		if out[i].IsUser {
			return out[i].User < out[j].User
		}
		return out[i].Term < out[j].Term
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

func (v *refVector) Snapshot() *refVector {
	c := newRef()
	c.total = v.total
	for k, x := range v.users {
		c.users[k] = x
	}
	for k, x := range v.terms {
		c.terms[k] = x
	}
	for k := range v.unlearnedTerms {
		c.unlearnedTerms[k] = true
	}
	for k := range v.unlearnedUsers {
		c.unlearnedUsers[k] = true
	}
	return c
}

// Profile universe of FuzzProfile: user ids below profileUsers, term
// ids below profileTerms.
const (
	profileUsers = 300
	profileTerms = 24
)

// profileWeights are the reinforcement weights an op can pick: the
// production weight 1, others whose sums round differently, and two
// that Reinforce must ignore.
var profileWeights = [...]float64{1, 1, 1, 0.1, 3, 0.7, 0, -1}

// profileRun decodes data into a sequence of profile operations and
// applies each to a Vector and to the reference, failing on the first
// read where they differ in a single bit. Each op takes four bytes:
//
//	0–2  Reinforce a group: a block of equally spaced users (start,
//	     length and stride from the next bytes) and one or two terms,
//	     so every member gains the same mass and ties are the norm
//	3    Unlearn a term
//	4    UnlearnUser
//	5    push a Snapshot of both onto the history
//	6    restore history step k, dropping the steps after it, as
//	     Session.Backtrack does
func profileRun(t *testing.T, data []byte) {
	v, ref := New(), newRef()
	var hist []*Vector
	var refHist []*refVector
	var probes []*groups.Group
	for len(data) >= 4 {
		op, a, b, c := data[0]%7, int(data[1]), int(data[2]), int(data[3])
		data = data[4:]
		switch op {
		case 0, 1, 2:
			lo := a * profileUsers / 256
			stride := 1 + c%4
			var members []int
			for u, k := lo, 0; u < profileUsers && k <= b; u, k = u+stride, k+1 {
				members = append(members, u)
			}
			desc := groups.NewDescription(groups.TermID(c % profileTerms))
			if c&0x80 != 0 {
				desc = groups.NewDescription(groups.TermID(c%profileTerms), groups.TermID(b%profileTerms))
			}
			g := &groups.Group{Desc: desc, Members: bitset.FromIndices(profileUsers, members)}
			w := profileWeights[(b^c)%len(profileWeights)]
			v.Reinforce(g, w)
			ref.Reinforce(g, w)
			probes = append(probes, g)
		case 3:
			v.Unlearn(groups.TermID(a % profileTerms))
			ref.Unlearn(groups.TermID(a % profileTerms))
		case 4:
			u := (a<<8 | b) % profileUsers
			v.UnlearnUser(u)
			ref.UnlearnUser(u)
		case 5:
			hist = append(hist, v.Snapshot())
			refHist = append(refHist, ref.Snapshot())
		case 6:
			if len(hist) == 0 {
				continue
			}
			k := a % len(hist)
			v, ref = hist[k].Snapshot(), refHist[k].Snapshot()
			hist, refHist = hist[:k+1], refHist[:k+1]
		}
		checkProfile(t, v, ref, probes)
	}
}

// checkProfile compares every read of v with the reference's, bit for
// bit.
func checkProfile(t *testing.T, v *Vector, ref *refVector, probes []*groups.Group) {
	t.Helper()
	size := len(ref.users) + len(ref.terms)
	for _, n := range []int{0, 1, 8, size, size + 3} {
		got, want := v.Top(n), ref.Top(n)
		if i := firstDiff(got, want, sameEntry); i >= 0 {
			t.Fatalf("Top(%d): %d entries, reference %d; first difference at %d: %+v, reference %+v",
				n, len(got), len(want), i, at(got, i), at(want, i))
		}
	}
	for _, m := range []int{0, 1, 8, 128, len(ref.users) + 1} {
		got, want := v.TopUsers(m), ref.TopUsers(m)
		if i := firstDiff(got, want, sameUserMass); i >= 0 {
			t.Fatalf("TopUsers(%d): %d users, reference %d; first difference at %d: %+v, reference %+v",
				m, len(got), len(want), i, at(got, i), at(want, i))
		}
	}
	for u := 0; u < profileUsers; u++ {
		if got, want := v.UserScore(u), ref.UserScore(u); !sameBits(got, want) {
			t.Fatalf("UserScore(%d) = %v, reference %v", u, got, want)
		}
	}
	for id := groups.TermID(-1); id <= profileTerms; id++ {
		if got, want := v.TermScore(id), ref.TermScore(id); !sameBits(got, want) {
			t.Fatalf("TermScore(%d) = %v, reference %v", id, got, want)
		}
	}
	if v.IsEmpty() != ref.IsEmpty() {
		t.Fatalf("IsEmpty = %v, reference %v", v.IsEmpty(), ref.IsEmpty())
	}
	snap := v.Snapshot()
	for _, g := range probes {
		got := v.Alignment(g)
		if want := ref.Alignment(g); !sameBits(got, want) {
			t.Fatalf("Alignment = %v, reference %v", got, want)
		}
		if again := v.Alignment(g); !sameBits(again, got) {
			t.Fatalf("Alignment changed across calls: %v then %v", got, again)
		}
		if copied := snap.Alignment(g); !sameBits(copied, got) {
			t.Fatalf("Alignment of a Snapshot = %v, original %v", copied, got)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameEntry(x, y Entry) bool {
	return x.IsUser == y.IsUser && x.User == y.User && x.Term == y.Term && sameBits(x.Score, y.Score)
}

func sameUserMass(x, y UserMass) bool { return x.User == y.User && sameBits(x.Mass, y.Mass) }

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff[T any](a, b []T, same func(x, y T) bool) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || !same(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// at returns s[i], or nil past its end.
func at[T any](s []T, i int) any {
	if i < len(s) {
		return s[i]
	}
	return nil
}

// profileSeeds are op sequences for FuzzProfile's corpus: overlapping
// blocks at mixed weights, unlearning between reinforcements, and
// snapshots restored after further changes.
var profileSeeds = [][]byte{
	{0, 0, 255, 0},
	{0, 10, 40, 1, 1, 20, 40, 1, 2, 10, 40, 0x81},
	{0, 0, 80, 2, 5, 0, 0, 0, 1, 30, 90, 3, 6, 0, 0, 0, 0, 60, 20, 5},
	{0, 0, 99, 0, 3, 0, 0, 0, 4, 0, 3, 0, 0, 0, 99, 0, 3, 1, 0, 0},
	{0, 5, 50, 0x84, 1, 5, 51, 0x86, 5, 0, 0, 0, 4, 0, 10, 0, 3, 4, 0, 0, 6, 0, 0, 0, 2, 5, 52, 0x85},
	{0, 0, 255, 3, 0, 128, 255, 1, 3, 0, 0, 0, 3, 1, 0, 0, 4, 0, 0, 0, 0, 0, 255, 0},
}

// TestProfileMatchesReference replays the seed sequences through the
// Vector and the map reference.
func TestProfileMatchesReference(t *testing.T) {
	for _, seed := range profileSeeds {
		profileRun(t, seed)
	}
}

// FuzzProfile: after every operation of any sequence, each read of the
// profile matches the map reference bit for bit.
func FuzzProfile(f *testing.F) {
	for _, seed := range profileSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*64 {
			data = data[:4*64]
		}
		profileRun(t, data)
	})
}
