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
package feedback

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"vexus/internal/groups"
	"vexus/internal/topk"
)

// Vector is the explorer's feedback profile. The zero value is not
// usable; construct with New. Not safe for concurrent mutation.
type Vector struct {
	users map[int]float64
	terms map[groups.TermID]float64
	total float64
	// unlearnedTerms / unlearnedUsers pin deleted entries to zero so
	// that later reinforcements of overlapping groups do not silently
	// re-learn what the explorer explicitly removed; lift the pin with
	// ClearUnlearned.
	unlearnedTerms map[groups.TermID]bool
	unlearnedUsers map[int]bool
}

// New returns an empty (uniform-prior) feedback vector.
func New() *Vector {
	return &Vector{
		users:          make(map[int]float64),
		terms:          make(map[groups.TermID]float64),
		unlearnedTerms: make(map[groups.TermID]bool),
		unlearnedUsers: make(map[int]bool),
	}
}

// IsEmpty reports whether no feedback has been accumulated.
func (v *Vector) IsEmpty() bool { return v.total == 0 }

// Mass returns the total normalized probability mass: 1 once any
// feedback exists, 0 before (the paper's "all scores add up to 1.0").
func (v *Vector) Mass() float64 {
	if v.total == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v.users {
		sum += x
	}
	for _, x := range v.terms {
		sum += x
	}
	return sum / v.total
}

// Reinforce records a positive signal on a chosen group: each member
// user and each description term gains `weight` raw mass. Entries
// previously unlearned stay at zero.
func (v *Vector) Reinforce(g *groups.Group, weight float64) {
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

// ReinforceTerm adds mass to a single term (e.g. a brushed histogram
// bar).
func (v *Vector) ReinforceTerm(id groups.TermID, weight float64) {
	if weight <= 0 || v.unlearnedTerms[id] {
		return
	}
	v.terms[id] += weight
	v.total += weight
}

// Unlearn deletes a term from the profile (the CONTEXT "delete"
// interaction: e.g. removing "male" to de-bias the exploration). The
// remaining entries implicitly renormalize.
func (v *Vector) Unlearn(id groups.TermID) {
	v.total -= v.terms[id]
	delete(v.terms, id)
	v.unlearnedTerms[id] = true
}

// UnlearnUser deletes a user from the profile.
func (v *Vector) UnlearnUser(u int) {
	v.total -= v.users[u]
	delete(v.users, u)
	v.unlearnedUsers[u] = true
}

// ClearUnlearned lifts the unlearn pin from a term so it may be
// learned again.
func (v *Vector) ClearUnlearned(id groups.TermID) { delete(v.unlearnedTerms, id) }

// IsUnlearned reports whether the term is pinned to zero by Unlearn.
func (v *Vector) IsUnlearned(id groups.TermID) bool { return v.unlearnedTerms[id] }

// Decay multiplies the accumulated mass by factor ∈ (0,1). The
// normalized view is unchanged until the next reinforcement, which
// then weighs more against the shrunken past — recency bias for
// session policies that want it.
func (v *Vector) Decay(factor float64) {
	if factor <= 0 || factor >= 1 {
		return
	}
	for k := range v.users {
		v.users[k] *= factor
	}
	for k := range v.terms {
		v.terms[k] *= factor
	}
	v.total *= factor
}

// UserScore returns the normalized probability mass on user u.
func (v *Vector) UserScore(u int) float64 {
	if v.total == 0 {
		return 0
	}
	return v.users[u] / v.total
}

// TermScore returns the normalized probability mass on term id.
func (v *Vector) TermScore(id groups.TermID) float64 {
	if v.total == 0 {
		return 0
	}
	return v.terms[id] / v.total
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
		score += v.terms[id]
	}
	// Iterate the sparse side: scored users are typically far fewer
	// than group members.
	for u, mass := range v.users {
		if g.Members.Contains(u) {
			score += mass
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
// Only the m returned users are sorted: a quickselect first moves them
// to the front of the profile's users.
func (v *Vector) TopUsers(m int) []UserMass {
	if v.total == 0 || len(v.users) == 0 {
		return nil
	}
	out := make([]UserMass, 0, len(v.users))
	for u, raw := range v.users {
		out = append(out, UserMass{User: u, Mass: raw / v.total})
	}
	if m > 0 && m < len(out) {
		topk.Select(out, m, compareUserMass)
		out = out[:m]
	}
	slices.SortFunc(out, compareUserMass)
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

// Top returns the n highest-mass entries (terms and users mixed),
// descending; ties break deterministically (terms before users, then
// ascending id). This is what CONTEXT renders (Fig. 2 (b)).
func (v *Vector) Top(n int) []Entry {
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
	if n < len(out) {
		out = out[:n]
	}
	return out
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
	c := New()
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
