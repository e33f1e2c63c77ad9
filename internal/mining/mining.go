// Package mining provides the shared substrate for user-group
// discovery: the encoding of users into transactions over an interned
// term vocabulary, vertical tid-lists for fast support counting, and
// the Miner interface that all discovery algorithms (LCM, stream
// mining, BIRCH) implement. The paper treats VEXUS as independent of
// the discovery algorithm (§II-A); this interface is that independence
// made concrete.
package mining

import (
	"fmt"
	"sort"

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
		sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
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

// Support returns the number of users carrying term id.
func (t *Transactions) Support(id groups.TermID) int {
	return t.Tids[id].Count()
}

// SupportOf returns the number of users carrying every term of the
// description (intersection of tid-lists). The empty description is
// supported by all users.
func (t *Transactions) SupportOf(d groups.Description) int {
	set := t.MembersOf(d)
	return set.Count()
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
func (t *Transactions) Closure(members *bitset.Set) groups.Description {
	if members.IsEmpty() {
		return groups.NewDescription()
	}
	out := make(groups.Description, 0, 8)
	for id := range t.Tids {
		if members.SubsetOf(t.Tids[id]) {
			out = append(out, groups.TermID(id))
		}
	}
	return out
}

// Miner discovers user groups from transactions. Implementations must
// return groups whose Members bitsets share the transactions' universe.
type Miner interface {
	// Mine returns discovered groups. The returned group IDs are
	// unspecified; callers assign ids via groups.NewSpace.
	Mine(t *Transactions) ([]*groups.Group, error)
	// Name identifies the algorithm in reports and benchmarks.
	Name() string
}

// Options bounds group discovery across all miners.
type Options struct {
	// MinSupport is the minimum absolute member count of a group.
	MinSupport int
	// MaxLen caps description length (0 = unlimited).
	MaxLen int
	// MaxGroups aborts enumeration beyond this many groups
	// (0 = unlimited); a safety valve against pattern explosion.
	//
	// Contract: when the budget trips, a miner returns AT MOST
	// MaxGroups groups — the first MaxGroups in its enumeration order —
	// together with an error wrapping ErrTooManyGroups, so callers may
	// either fail or proceed with the truncated collection. Miners that
	// bound their output by construction (birch's K) never trip it;
	// stream bounds memory via lossy counting instead.
	MaxGroups int
}

// Normalized returns a copy of o with defaults applied (MinSupport
// floored at 1) after validating against a universe of n users. The
// receiver is never mutated: miners must call Normalized once at the
// top of Mine and use only the returned copy, so a value-copied
// Options can never silently run with MinSupport=0.
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

// ParallelOptions configures the parallel discovery entry points. It
// is shared by every miner that fans enumeration subtrees out over
// internal/parallel, so callers configure one struct regardless of the
// algorithm behind it.
type ParallelOptions struct {
	// Workers is the worker count (<= 0 means runtime.NumCPU()). Any
	// value produces results bit-identical to the sequential Mine;
	// only wall clock changes.
	Workers int
}

// ParallelMiner is implemented by miners with a parallel entry point
// whose results (group set, order, and truncation behavior) are
// bit-identical to Mine for every worker count.
type ParallelMiner interface {
	Miner
	// MineParallel is Mine fanned out over `workers` goroutines.
	MineParallel(t *Transactions, workers int) ([]*groups.Group, error)
}

// MineParallel mines with m's parallel entry point when it has one
// (LCM today) and falls back to the sequential Mine otherwise
// (birch/stream, until they adopt ParallelMiner).
func MineParallel(m Miner, t *Transactions, opts ParallelOptions) ([]*groups.Group, error) {
	if pm, ok := m.(ParallelMiner); ok {
		return pm.MineParallel(t, opts.Workers)
	}
	return m.Mine(t)
}

// FingerprintedMiner lets a miner contribute its result-affecting
// parameters to a snapshot content address (internal/store): two
// miners whose FingerprintKey differs must be assumed to mine
// different group sets. Miners that do not implement it are identified
// by Name() alone, so snapshots of differently parameterized instances
// of such a miner would alias — every in-tree miner implements it.
type FingerprintedMiner interface {
	Miner
	// FingerprintKey returns a deterministic string covering every
	// parameter that changes Mine's output.
	FingerprintKey() string
}

// ErrTooManyGroups is returned when enumeration exceeds MaxGroups.
var ErrTooManyGroups = fmt.Errorf("mining: group budget exceeded")
