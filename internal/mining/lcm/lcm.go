// Package lcm implements closed frequent itemset mining in the style of
// LCM (Linear-time Closed itemset Miner, Uno et al., FIMI 2003), the
// group-discovery algorithm the paper names first (§II-A). Each closed
// frequent itemset over the term vocabulary is one user group: the
// itemset is the description, its tid-set the membership.
//
// The implementation uses LCM's two key ideas:
//
//   - Occurrence deliver: the tid-set of an extension P ∪ {i} is the
//     intersection of P's tid-set with item i's vertical list — here a
//     word-parallel bitset intersection.
//   - Prefix-preserving closure extension (PPC): after extending with
//     item i and closing, recurse only if the closure adds no item
//     smaller than i that was absent from the parent closure. Every
//     closed set is then enumerated exactly once, with no global
//     duplicate table, which is what makes LCM linear in the number of
//     closed sets.
package lcm

import (
	"fmt"
	"slices"

	"vexus/internal/bitset"
	"vexus/internal/groups"
	"vexus/internal/mining"
)

// Miner mines closed frequent itemsets as user groups.
type Miner struct {
	Opts mining.Options
}

// New returns an LCM miner with the given bounds.
func New(opts mining.Options) *Miner { return &Miner{Opts: opts} }

// Name is kept only for wallbench/layers.go, its one caller, which
// changes only with the benchmark; delete it in the benchmark's next
// change.
func (m *Miner) Name() string { return "lcm" }

// Mine mines on one goroutine. Groups are returned in enumeration
// order (deterministic for fixed input). The empty/universe group is
// only reported when some term covers every user (its closure is then
// non-empty); the unconstrained universe itself is not a group.
//
// When the enumeration exceeds Opts.MaxGroups, Mine returns exactly
// the first MaxGroups groups in enumeration order together with an
// error wrapping mining.ErrTooManyGroups (the mining.Options.MaxGroups
// contract), so callers may either fail or proceed with the truncated
// collection.
func (m *Miner) Mine(t *mining.Transactions) ([]*groups.Group, error) {
	opts, err := m.Opts.Normalized(t.N)
	if err != nil {
		return nil, err
	}
	e := &enumerator{t: t, opts: opts, budget: budgetOf(opts)}
	full := bitset.New(t.N)
	full.Fill()

	// Root closure: terms carried by every user.
	root := t.Closure(full)
	if len(root) > 0 && (opts.MaxLen == 0 || len(root) <= opts.MaxLen) {
		if err := e.emit(root, full); err != nil {
			return e.out, err
		}
	}
	if err := e.recurse(root, full, -1); err != nil {
		return e.out, err
	}
	return e.out, nil
}

// budgetOf translates Options.MaxGroups into an emit cap: -1 means
// unlimited, any other value is the exact number of groups an
// enumerator may append to its output.
func budgetOf(opts mining.Options) int {
	if opts.MaxGroups > 0 {
		return opts.MaxGroups
	}
	return -1
}

type enumerator struct {
	t    *mining.Transactions
	opts mining.Options
	out  []*groups.Group
	// budget caps len(out); -1 = unlimited. The sequential Mine sets
	// it to MaxGroups; each MineParallel subtree gets the remainder
	// after the root emit, since no single subtree can contribute more
	// than that to the surviving prefix.
	budget int
	// shared, when non-nil, is the cross-subtree budget tracker of a
	// MineParallel run: once the committed slot prefix alone fills
	// MaxGroups, every enumerator still running aborts cooperatively.
	shared *budgetTracker
}

// emit appends one group, enforcing the budget *before* appending so
// the output never exceeds it. Both checks fire only when one more
// group provably exists, which is exactly the condition under which
// ErrTooManyGroups must surface.
func (e *enumerator) emit(desc groups.Description, members *bitset.Set) error {
	if e.budget >= 0 && len(e.out) >= e.budget {
		return e.budgetErr()
	}
	if e.shared != nil && e.shared.exceeded() {
		return e.budgetErr()
	}
	// desc is a closure, already ascending and unique: no re-sort.
	e.out = append(e.out, &groups.Group{
		Desc:    slices.Clone(desc),
		Members: members.Clone(),
	})
	return nil
}

func (e *enumerator) budgetErr() error {
	return fmt.Errorf("%w: > %d groups at MinSupport=%d",
		mining.ErrTooManyGroups, e.opts.MaxGroups, e.opts.MinSupport)
}

// recurse enumerates all PPC extensions of the closed set desc (with
// tid-set members), using core item index coreI: only items > coreI are
// tried, and a closure is prefix-preserving iff it adds no new item
// ≤ coreI … i-1 outside the parent closure.
func (e *enumerator) recurse(desc groups.Description, members *bitset.Set, coreI int) error {
	nTerms := e.t.Vocab.Len()
	ext := bitset.New(e.t.N)
	// next indexes the first term of desc not below i; desc is ascending.
	next := 0
	for i := coreI + 1; i < nTerms; i++ {
		for next < len(desc) && int(desc[next]) < i {
			next++
		}
		if next < len(desc) && int(desc[next]) == i {
			continue
		}
		// Occurrence deliver: tid-set of the extension.
		ext.Copy(members)
		ext.InPlaceIntersect(e.t.Tids[i])
		sup := ext.Count()
		if sup < e.opts.MinSupport {
			continue
		}
		// Closure of desc ∪ {i} over the extension tid-set.
		closure := e.t.Closure(ext)
		if !prefixPreserved(closure, desc, i) {
			continue
		}
		if e.opts.MaxLen > 0 && len(closure) > e.opts.MaxLen {
			// The closed form is too long to present; deeper closures
			// only grow, so prune the whole branch.
			continue
		}
		if err := e.emit(closure, ext); err != nil {
			return err
		}
		if err := e.recurse(closure, ext, i); err != nil {
			return err
		}
	}
	return nil
}

// prefixPreserved is the PPC check of extending parent with item i: no
// term below i may join the closure unless it was already in the
// parent's description. Both descriptions are ascending, so one merge
// walk decides it without allocating.
func prefixPreserved(closure, parent groups.Description, i int) bool {
	j := 0
	for _, cid := range closure {
		if int(cid) >= i {
			return true
		}
		for j < len(parent) && parent[j] < cid {
			j++
		}
		if j == len(parent) || parent[j] != cid {
			return false
		}
	}
	return true
}
