package lcm

import (
	"sync"
	"sync/atomic"

	"vexus/internal/bitset"
	"vexus/internal/groups"
	"vexus/internal/mining"
	"vexus/internal/parallel"
)

// MineParallel is Mine fanned out over `workers` goroutines (<= 0
// means runtime.NumCPU()). The top-level PPC extensions are
// independent enumeration subtrees — PPC guarantees no closed set is
// reachable from two different top-level items — so each item i gets
// its own slot: a worker enumerates the whole subtree under i into
// slot i, and the slots are concatenated in item order afterwards.
// That concatenation IS the sequential enumeration order, so the
// result is bit-identical to Mine for every worker count.
//
// MaxGroups keeps its exact sequential semantics under truncation.
// Each subtree caps its own output at the budget remainder (no
// subtree can contribute more than that to the surviving prefix), and
// a shared tracker commits slot counts in item order as subtrees
// finish: once the committed prefix alone fills the budget, every
// still-running subtree aborts cooperatively — the groups it would
// have produced are provably beyond the first-MaxGroups prefix. The
// concatenation is then cut to exactly MaxGroups groups and returned
// with an error wrapping mining.ErrTooManyGroups, matching Mine's
// truncated output group for group.
func (m *Miner) MineParallel(t *mining.Transactions, workers int) ([]*groups.Group, error) {
	opts, err := m.Opts.Normalized(t.N)
	if err != nil {
		return nil, err
	}
	nTerms := t.Vocab.Len()
	workers = parallel.Workers(workers, nTerms)
	if workers == 1 {
		return (&Miner{Opts: opts}).Mine(t)
	}

	full := bitset.New(t.N)
	full.Fill()
	root := t.Closure(full)
	var rootGroup *groups.Group
	if len(root) > 0 && (opts.MaxLen == 0 || len(root) <= opts.MaxLen) {
		rootGroup = &groups.Group{
			Desc:    groups.NewDescription(root...),
			Members: full.Clone(),
		}
	}
	base := 0
	if rootGroup != nil {
		base = 1
	}
	if opts.MaxGroups > 0 && base >= opts.MaxGroups && nTerms > 0 {
		// The root alone fills the budget; any extension would exceed
		// it. Probe cheaply whether one exists to decide the error.
		if hasExtension(t, opts, root, full) {
			return []*groups.Group{rootGroup},
				(&enumerator{opts: opts}).budgetErr()
		}
		return []*groups.Group{rootGroup}, nil
	}

	// Per-subtree budget: the surviving prefix holds at most MaxGroups
	// groups including the root, so a single slot never needs more
	// than the remainder.
	slotBudget := -1
	if opts.MaxGroups > 0 {
		slotBudget = opts.MaxGroups - base
	}
	tracker := newBudgetTracker(opts.MaxGroups, base, nTerms)

	slots := make([][]*groups.Group, nTerms)
	truncated := make([]bool, nTerms)
	// Per-worker scratch: the occurrence-deliver bitset of the
	// top-level extension, keyed by worker id and reused across every
	// subtree the worker claims.
	scratch := make([]*bitset.Set, workers)
	parallel.ForEach(nTerms, workers, func(worker, i int) {
		defer func() { tracker.complete(i, len(slots[i])) }()
		if scratch[worker] == nil {
			scratch[worker] = bitset.New(t.N)
		}
		ext := scratch[worker]
		closure, ok := topLevelExtension(t, opts, root, full, ext, i)
		if !ok {
			return
		}
		// No early skip on tracker.exceeded() before this point:
		// aborts must happen at emit time only, so a tripped budget
		// always coincides with a provable further group (exact
		// ErrTooManyGroups parity with the sequential run even when
		// the committed prefix fills the budget exactly).
		e := &enumerator{t: t, opts: opts, budget: slotBudget, shared: tracker}
		if err := e.emit(closure, ext); err != nil {
			slots[i], truncated[i] = e.out, true
			return
		}
		if err := e.recurse(closure, ext, i); err != nil {
			slots[i], truncated[i] = e.out, true
			return
		}
		slots[i] = e.out
	})

	total := base
	trips := false
	for i := range slots {
		total += len(slots[i])
		trips = trips || truncated[i]
	}
	if opts.MaxGroups > 0 && total > opts.MaxGroups {
		trips = true
	}
	out := make([]*groups.Group, 0, total)
	if rootGroup != nil {
		out = append(out, rootGroup)
	}
	for _, slot := range slots {
		out = append(out, slot...)
	}
	if trips {
		if len(out) > opts.MaxGroups {
			out = out[:opts.MaxGroups]
		}
		return out, (&enumerator{opts: opts}).budgetErr()
	}
	return out, nil
}

// topLevelExtension applies the top-level admission filter of the
// sequential recurse(root, full, -1) loop to item i: occurrence
// deliver into the ext scratch, support, closure, PPC prefix check
// against the root, and MaxLen pruning. It returns the closure and
// whether the subtree under i is enumerated at all — the single
// definition both MineParallel's fan-out and hasExtension rely on.
func topLevelExtension(t *mining.Transactions, opts mining.Options, root groups.Description, full, ext *bitset.Set, i int) (groups.Description, bool) {
	if root.Contains(groups.TermID(i)) {
		return nil, false
	}
	ext.Copy(full)
	ext.InPlaceIntersect(t.Tids[i])
	if ext.Count() < opts.MinSupport {
		return nil, false
	}
	closure := t.Closure(ext)
	if !prefixPreserved(closure, root, i) {
		return nil, false
	}
	if opts.MaxLen > 0 && len(closure) > opts.MaxLen {
		return nil, false
	}
	return closure, true
}

// hasExtension reports whether any top-level PPC extension of the root
// closure is frequent — i.e. whether the full enumeration holds at
// least one group beyond the root.
func hasExtension(t *mining.Transactions, opts mining.Options, root groups.Description, full *bitset.Set) bool {
	ext := bitset.New(t.N)
	for i := 0; i < t.Vocab.Len(); i++ {
		if _, ok := topLevelExtension(t, opts, root, full, ext, i); ok {
			return true
		}
	}
	return false
}

// budgetTracker is the shared MaxGroups accounting of a MineParallel
// run. Slots commit their final group counts in item order (a
// contiguous frontier); `committed` is the atomic number of groups in
// the root + committed-prefix, readable lock-free from every worker's
// emit path. Once committed >= max, the first-MaxGroups prefix of the
// enumeration is fully determined by already-finished slots, so any
// still-running subtree may abort without changing the result.
type budgetTracker struct {
	max       int // 0 = unlimited
	committed atomic.Int64

	mu       sync.Mutex
	counts   []int
	done     []bool
	frontier int
}

func newBudgetTracker(max, base, slots int) *budgetTracker {
	b := &budgetTracker{max: max, counts: make([]int, slots), done: make([]bool, slots)}
	b.committed.Store(int64(base))
	return b
}

// exceeded reports whether the committed prefix alone fills the
// budget. Enumerators consult it on every emit.
func (b *budgetTracker) exceeded() bool {
	return b.max > 0 && b.committed.Load() >= int64(b.max)
}

// complete records slot's final (possibly truncated) group count and
// advances the contiguous committed frontier.
func (b *budgetTracker) complete(slot, count int) {
	if b.max == 0 {
		return
	}
	b.mu.Lock()
	b.counts[slot] = count
	b.done[slot] = true
	for b.frontier < len(b.done) && b.done[b.frontier] {
		b.committed.Add(int64(b.counts[b.frontier]))
		b.frontier++
	}
	b.mu.Unlock()
}
