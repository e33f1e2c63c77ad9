// Package feedback implements the explorer profile of §II-B "Feedback
// Learning": a probability vector over all users and demographic values
// (terms). Choosing a group is positive feedback — the scores of its
// members and of the terms describing it increase and the vector stays
// normalized (all exposed scores sum to 1.0), so everything that is
// never rewarded decays toward zero relative to what is. The CONTEXT
// module displays the vector; deleting an entry ("unlearning") removes
// its mass so that subsequent recommendations are no longer biased
// toward it.
//
// Internally the vector accumulates raw reinforcement mass and exposes
// the normalized view: this keeps repeated reinforcement additive (two
// clicks on a group weigh twice one click) while preserving the
// paper's sum-to-one invariant at every read.
//
// # Storage
//
// The user part is two parallel slices, the scored user ids in
// ascending order and their raw masses; the term part is a dense slice
// of raw masses indexed by TermID, grown on demand (vocabularies hold
// tens to hundreds of terms). Every read is then one linear pass:
// Top keeps a bounded buffer of its n best entries instead of sorting
// the whole profile, TopUsers keeps an m-entry one, Snapshot
// copies the slices, TermScore is an index and UserScore a binary
// search. Reinforce merges the group's ascending members into the
// user slices.
//
// The layout changes no number. Each entry's mass receives the same
// additions as a map entry would (one += weight per reinforcement),
// total receives the same sequence of += weight and -= mass, and every
// score is the same raw / total division, so masses, total and scores
// keep their exact bits. Top and TopUsers order by a strict total
// order (score descending, terms before users, then ascending id), so
// any selection algorithm returns the same entries in the same order.
// Alignment and Mass sum users in ascending id order, so their bits no
// longer depend on map iteration order.
package feedback

import (
	"cmp"
	"fmt"
	"slices"

	"vexus/internal/groups"
)

// Vector is the explorer's feedback profile; the zero value is an
// empty one. Not safe for concurrent mutation.
type Vector struct {
	// users holds the scored users in ascending order; mass[i] is the
	// raw mass of users[i], always > 0.
	users []int
	mass  []float64
	// terms is the raw mass by TermID. 0 marks an unscored term: every
	// reinforcement adds a positive weight, so a scored term is never 0.
	terms []float64
	total float64
	// pinnedUsers (ascending) and pinnedTerms (by TermID) pin unlearned
	// entries to zero so that later reinforcements of overlapping
	// groups do not silently re-learn what the explorer explicitly
	// removed.
	pinnedUsers []int
	pinnedTerms []bool
}

// New returns an empty (uniform-prior) feedback vector.
func New() *Vector { return &Vector{} }

// IsEmpty reports whether no feedback has been accumulated.
func (v *Vector) IsEmpty() bool { return v.total == 0 }

// Reinforce records a positive signal on a chosen group: each member
// user and each description term gains `weight` raw mass. Entries
// previously unlearned stay at zero.
func (v *Vector) Reinforce(g *groups.Group, weight float64) {
	if weight <= 0 {
		return
	}
	// One merge walk over the ascending members adds the weight to the
	// users already scored and collects the new ones.
	var fresh []int
	i, p := 0, 0
	g.Members.Range(func(u int) bool {
		for p < len(v.pinnedUsers) && v.pinnedUsers[p] < u {
			p++
		}
		if p < len(v.pinnedUsers) && v.pinnedUsers[p] == u {
			return true
		}
		for i < len(v.users) && v.users[i] < u {
			i++
		}
		if i < len(v.users) && v.users[i] == u {
			v.mass[i] += weight
		} else {
			fresh = append(fresh, u)
		}
		v.total += weight
		return true
	})
	v.insertUsers(fresh, weight)
	for _, id := range g.Desc {
		if int(id) < len(v.pinnedTerms) && v.pinnedTerms[id] {
			continue
		}
		v.terms = grown(v.terms, int(id))
		v.terms[id] += weight
		v.total += weight
	}
}

// grown returns s, extended with zero values when it is too short to
// hold index i.
func grown[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// insertUsers merges fresh (ascending, none scored yet) into the user
// slices at the given mass, from the back so nothing moves twice.
func (v *Vector) insertUsers(fresh []int, mass float64) {
	n, f := len(v.users), len(fresh)
	if f == 0 {
		return
	}
	v.users = slices.Grow(v.users, f)[:n+f]
	v.mass = slices.Grow(v.mass, f)[:n+f]
	for i, j, k := n-1, f-1, n+f-1; j >= 0; k-- {
		if i >= 0 && v.users[i] > fresh[j] {
			v.users[k], v.mass[k] = v.users[i], v.mass[i]
			i--
		} else {
			v.users[k], v.mass[k] = fresh[j], mass
			j--
		}
	}
}

// termMass is the raw mass of term id, 0 when unscored.
func (v *Vector) termMass(id groups.TermID) float64 {
	if id < 0 || int(id) >= len(v.terms) {
		return 0
	}
	return v.terms[id]
}

// Unlearn deletes a term from the profile (the CONTEXT "delete"
// interaction: e.g. removing "male" to de-bias the exploration). The
// remaining entries implicitly renormalize.
func (v *Vector) Unlearn(id groups.TermID) {
	if id < 0 {
		return
	}
	if int(id) < len(v.terms) {
		v.total -= v.terms[id]
		v.terms[id] = 0
	}
	v.pinnedTerms = grown(v.pinnedTerms, int(id))
	v.pinnedTerms[id] = true
}

// UnlearnUser deletes a user from the profile.
func (v *Vector) UnlearnUser(u int) {
	if i, ok := slices.BinarySearch(v.users, u); ok {
		v.total -= v.mass[i]
		v.users = slices.Delete(v.users, i, i+1)
		v.mass = slices.Delete(v.mass, i, i+1)
	}
	if j, ok := slices.BinarySearch(v.pinnedUsers, u); !ok {
		v.pinnedUsers = slices.Insert(v.pinnedUsers, j, u)
	}
}

// UserScore returns the normalized probability mass on user u.
func (v *Vector) UserScore(u int) float64 {
	if v.total == 0 {
		return 0
	}
	raw := 0.0
	if i, ok := slices.BinarySearch(v.users, u); ok {
		raw = v.mass[i]
	}
	return raw / v.total
}

// TermScore returns the normalized probability mass on term id.
func (v *Vector) TermScore(id groups.TermID) float64 {
	if v.total == 0 {
		return 0
	}
	return v.termMass(id) / v.total
}

// Alignment scores how strongly a candidate group agrees with the
// profile: the sum of the normalized masses of its description terms
// plus its members. An empty profile scores every group 0. The result
// is in [0, 1] (a sub-sum of a probability vector), directly usable as
// the weight in the greedy optimizer's weighted similarity (§II-B: "a
// group which is highly in line with the feedback received so far gets
// a higher weight").
func (v *Vector) Alignment(g *groups.Group) float64 {
	if v.total == 0 {
		return 0
	}
	score := 0.0
	for _, id := range g.Desc {
		score += v.termMass(id)
	}
	for i, u := range v.users {
		if g.Members.Contains(u) {
			score += v.mass[i]
		}
	}
	return score / v.total
}

// UserMass is one (user, normalized mass) pair of the profile.
type UserMass struct {
	User int
	Mass float64
}

// TopUsers returns the m highest-mass users, descending (ties by
// ascending user id); m ≤ 0 returns them all. The greedy optimizer
// scores candidate alignment against this truncated view: the vector
// is heavy-tailed, so the top slice carries almost all the user mass
// while keeping per-candidate scoring O(m) instead of O(|profile|).
// A bounded m costs one pass over the profile's users that keeps the m
// best seen so far in order, in an m-entry buffer.
func (v *Vector) TopUsers(m int) []UserMass {
	if v.total == 0 || len(v.users) == 0 {
		return nil
	}
	if m <= 0 || m >= len(v.users) {
		out := make([]UserMass, len(v.users))
		for i, u := range v.users {
			out[i] = UserMass{User: u, Mass: v.mass[i] / v.total}
		}
		slices.SortFunc(out, compareUserMass)
		return out
	}
	out := make([]UserMass, 0, m)
	for i, u := range v.users {
		e := UserMass{User: u, Mass: v.mass[i] / v.total}
		if len(out) == m {
			if e.Mass < out[m-1].Mass || compareUserMass(e, out[m-1]) >= 0 {
				continue // ranks after every kept user
			}
			out = out[:m-1]
		}
		j, _ := slices.BinarySearchFunc(out, e, compareUserMass)
		out = slices.Insert(out, j, e)
	}
	return out
}

// compareUserMass orders users by descending mass, ties by ascending
// id: a strict total order, since ids are unique.
func compareUserMass(a, b UserMass) int {
	switch {
	case a.Mass > b.Mass:
		return -1
	case a.Mass < b.Mass:
		return 1
	}
	return cmp.Compare(a.User, b.User)
}

// Entry is one displayed row of the CONTEXT module.
type Entry struct {
	// Term is valid when IsUser is false.
	Term groups.TermID
	// User is valid when IsUser is true.
	User   int
	IsUser bool
	Score  float64
}

// compareEntry orders entries by descending score, then terms before
// users, then ascending id: a strict total order.
func compareEntry(a, b Entry) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	case a.IsUser != b.IsUser:
		if a.IsUser {
			return 1
		}
		return -1
	case a.IsUser:
		return cmp.Compare(a.User, b.User)
	}
	return cmp.Compare(a.Term, b.Term)
}

// Top returns the n highest-mass entries (terms and users mixed),
// descending; ties break deterministically (terms before users, then
// ascending id). n ≤ 0 returns every entry. This is what CONTEXT
// renders (Fig. 2 (b)). A bounded n costs one pass over the profile
// with an n-entry insertion buffer, not a sort of the whole profile.
func (v *Vector) Top(n int) []Entry {
	size := len(v.users)
	for _, raw := range v.terms {
		if raw != 0 {
			size++
		}
	}
	limit := n // 0: keep every entry and sort them at the end
	if n <= 0 || n >= size {
		limit, n = 0, size
	}
	out := make([]Entry, 0, n)
	for id, raw := range v.terms {
		if raw != 0 {
			out = keepTop(out, limit, Entry{Term: groups.TermID(id), Score: raw / v.total})
		}
	}
	for i, u := range v.users {
		out = keepTop(out, limit, Entry{User: u, IsUser: true, Score: v.mass[i] / v.total})
	}
	if limit == 0 {
		slices.SortFunc(out, compareEntry)
	}
	return out
}

// keepTop adds e to top. With limit > 0, top holds the limit best
// entries seen so far in compareEntry order: e is inserted in place,
// pushing the last one out when full, or dropped if it ranks after
// them all. With limit 0, e is appended for the caller to sort.
func keepTop(top []Entry, limit int, e Entry) []Entry {
	if limit == 0 {
		return append(top, e)
	}
	if len(top) == limit {
		if compareEntry(e, top[limit-1]) >= 0 {
			return top
		}
		top = top[:limit-1]
	}
	i := len(top)
	top = append(top, e)
	for ; i > 0 && compareEntry(e, top[i-1]) < 0; i-- {
		top[i] = top[i-1]
	}
	top[i] = e
	return top
}

// String renders the top entries compactly for logs.
func (v *Vector) String() string {
	top := v.Top(5)
	s := "feedback["
	for i, e := range top {
		if i > 0 {
			s += " "
		}
		if e.IsUser {
			s += fmt.Sprintf("u%d:%.3f", e.User, e.Score)
		} else {
			s += fmt.Sprintf("t%d:%.3f", e.Term, e.Score)
		}
	}
	return s + "]"
}

// Snapshot returns a deep copy, used by HISTORY to restore the profile
// on backtrack.
func (v *Vector) Snapshot() *Vector {
	return &Vector{
		users:       slices.Clone(v.users),
		mass:        slices.Clone(v.mass),
		terms:       slices.Clone(v.terms),
		total:       v.total,
		pinnedUsers: slices.Clone(v.pinnedUsers),
		pinnedTerms: slices.Clone(v.pinnedTerms),
	}
}
