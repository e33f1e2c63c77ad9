// Package mining provides the shared substrate for user-group
// discovery: the encoding of users into transactions over an interned
// term vocabulary, vertical tid-lists for fast support counting, the
// closure LCM closes every candidate with (it tests only the terms of
// one member, see Transactions.Closure), and the bounds (Options) LCM
// runs under. The encoding feeds one miner, internal/mining/lcm, which
// mines every engine's group space, on a build and on every ingest.
// The paper treats VEXUS as independent of the discovery algorithm
// (§II-A) and names stream miners too; this repository fixes LCM
// instead of making the miner an option (see "Deviation: one group
// miner" in the module doc).
package mining

import (
	"fmt"
	"slices"

	"vexus/internal/bitset"
	"vexus/internal/groups"
)

// Transactions is the mining view of a dataset: one transaction per
// user, each a sorted set of term ids, plus the vertical representation
// (per-term bitsets over users) that makes support counting and closure
// computation word-parallel.
type Transactions struct {
	Vocab *groups.Vocab
	N     int // number of users / transactions

	// PerUser[u] is the ascending term-id list of user u.
	PerUser [][]groups.TermID
	// Tids[t] is the set of users carrying term t.
	Tids []*bitset.Set
}

// NewTransactions builds the vertical representation from per-user term
// lists. Lists are sorted and deduplicated in place.
func NewTransactions(vocab *groups.Vocab, perUser [][]groups.TermID) *Transactions {
	t := &Transactions{
		Vocab:   vocab,
		N:       len(perUser),
		PerUser: perUser,
		Tids:    make([]*bitset.Set, vocab.Len()),
	}
	for i := range t.Tids {
		t.Tids[i] = bitset.New(t.N)
	}
	for u, terms := range perUser {
		slices.Sort(terms)
		w := 0
		for i, id := range terms {
			if i == 0 || id != terms[i-1] {
				terms[w] = id
				w++
			}
		}
		perUser[u] = terms[:w]
		for _, id := range perUser[u] {
			t.Tids[id].Add(u)
		}
	}
	return t
}

// MembersOf returns the user set carrying every term of d. The empty
// description returns the full universe.
func (t *Transactions) MembersOf(d groups.Description) *bitset.Set {
	out := bitset.New(t.N)
	out.Fill()
	for _, id := range d {
		out.InPlaceIntersect(t.Tids[id])
	}
	return out
}

// Closure returns the canonical closed description of the given user
// set: every term carried by all of those users. Closed descriptions
// are the natural group labels ("all members share common demographics
// and actions that describe the group", §I).
//
// Every term of the closure is carried by every member, so it is a
// term of the first member u0: Closure walks only PerUser[u0] and keeps
// the terms whose tid-list contains the whole set, LCM's closure over
// the occurrence set. PerUser[u0] is ascending and deduplicated, so
// the description comes out canonical with no sort.
func (t *Transactions) Closure(members *bitset.Set) groups.Description {
	u0 := -1
	members.Range(func(u int) bool {
		u0 = u
		return false
	})
	if u0 < 0 {
		return groups.NewDescription()
	}
	out := make(groups.Description, 0, len(t.PerUser[u0]))
	for _, id := range t.PerUser[u0] {
		if members.SubsetOf(t.Tids[id]) {
			out = append(out, id)
		}
	}
	return out
}

// Options bounds group discovery.
type Options struct {
	// MinSupport is the minimum absolute member count of a group.
	MinSupport int
	// MaxLen caps description length (0 = unlimited).
	MaxLen int
	// MaxGroups aborts enumeration beyond this many groups
	// (0 = unlimited); a safety valve against pattern explosion.
	//
	// Contract: when the budget trips, the miner returns AT MOST
	// MaxGroups groups — the first MaxGroups in its enumeration order —
	// together with an error wrapping ErrTooManyGroups, so callers may
	// either fail or proceed with the truncated collection.
	MaxGroups int
}

// Normalized returns a copy of o with defaults applied (MinSupport
// floored at 1) after validating against a universe of n users. The
// receiver is never mutated: LCM calls Normalized once at the top of
// Mine and MineParallel and uses only the returned copy, so a
// value-copied Options can never silently run with MinSupport=0.
func (o Options) Normalized(n int) (Options, error) {
	if o.MinSupport < 1 {
		o.MinSupport = 1
	}
	if err := o.Validate(n); err != nil {
		return Options{}, err
	}
	return o, nil
}

// Validate checks the bounds without mutating o. It does not apply
// defaults — use Normalized for that; Validate alone accepts
// MinSupport=0 only because Normalized floors it afterwards.
func (o Options) Validate(n int) error {
	if o.MinSupport > n && n > 0 {
		return fmt.Errorf("mining: MinSupport %d exceeds universe %d", o.MinSupport, n)
	}
	if o.MaxLen < 0 || o.MaxGroups < 0 {
		return fmt.Errorf("mining: negative bounds")
	}
	return nil
}

// ParallelOptions and MineParallel are kept only for
// wallbench/layers.go, their one caller, which changes only with the
// benchmark; core.Build calls lcm.MineParallel directly. Delete both
// in the benchmark's next change.
type ParallelOptions struct {
	Workers int
}

// MineParallel forwards to m.MineParallel (see ParallelOptions).
func MineParallel(m interface {
	MineParallel(*Transactions, int) ([]*groups.Group, error)
}, t *Transactions, opts ParallelOptions) ([]*groups.Group, error) {
	return m.MineParallel(t, opts.Workers)
}

// ErrTooManyGroups is returned when enumeration exceeds MaxGroups.
var ErrTooManyGroups = fmt.Errorf("mining: group budget exceeded")
