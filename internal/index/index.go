// Package index implements the per-group inverted similarity index of
// §II-A: for each group g, a list of all other groups in decreasing
// order of Jaccard similarity to g.
//
// The engine's index is New: it stores no lists and computes each
// exact list on demand. The paper materializes the top 10% of every
// list, but the optimizer asks for a pool of 4,096 neighbours, which
// reaches past that prefix on nearly every group, so a stored prefix
// would cost set-up time and memory without ever answering a lookup.
// BuildParallel keeps the paper's partial materialization for the
// §II-A study (vexus-bench E2): the top fraction of each list is
// stored, and lookups beyond it fall back to the exact computation, so
// correctness never depends on the fraction — only latency does.
//
// There are two lookups. Neighbors returns the sorted top of a list.
// Similar, the optimizer's lookup, returns the same entries above a
// similarity bound, cut to a cap but unsorted: the optimizer re-ranks
// its pool by a personalized similarity anyway, so sorting here would
// be wasted. Every entry carries the overlap count |g ∩ h| its
// similarity was computed from.
//
// Similarities come from counts alone: each lookup counts |g ∩ h| over
// the space's user→groups lists, and the group sizes are the ones the
// space counted once when it was built (groups.Space.Sizes), so the
// index keeps no sizes of its own.
//
// Every list exploits the group overlap graph: Jaccard(g, h) > 0
// requires a shared member, so candidates for g's list are exactly the
// groups reachable through g's members (space.Neighbors), not all
// |G|−1 groups. Disjoint groups tie at similarity 0 and are never
// listed.
package index

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"vexus/internal/groups"
	"vexus/internal/parallel"
	"vexus/internal/topk"
)

// Neighbor is one entry of a group g's inverted list: group ID, the
// number Inter of members it shares with g, and its Jaccard similarity
// Sim to g.
type Neighbor struct {
	ID    int32
	Inter int32
	Sim   float64
}

// Index answers inverted-list lookups over one group space.
type Index struct {
	space *groups.Space
	// sizes is the space's own group sizes (groups.Space.Sizes): with
	// intersection sizes accumulated by counting (see accumulate),
	// Jaccard reduces to |A∩B| / (|A|+|B|−|A∩B|) with no bitset work
	// at all.
	sizes []int
	// scratch pools the |G|-sized counter arrays of exact lookups, so
	// concurrent sessions each take one instead of allocating per call.
	scratch sync.Pool

	// lists[g] is the materialized prefix of g's inverted list,
	// descending similarity, ties broken by ascending id; only
	// BuildParallel sets lists and overlapCount (nil for New).
	lists [][]Neighbor
	// overlapCount[g] is the number of groups with non-zero
	// similarity to g (length of the full meaningful list).
	overlapCount []int
	// DisableFallback makes Neighbors return at most the materialized
	// prefix instead of recomputing exactly — the configuration that
	// exposes what partial materialization costs downstream (E2).
	DisableFallback bool
}

// scratch is one exact lookup's working memory: cnt[h] accumulates
// |g ∩ h| and is all-zero between uses; touched lists the non-zero
// slots so they can be re-zeroed without a |G| pass.
type scratch struct {
	cnt     []int32
	touched []int32
}

// New returns the index the engine serves from: it stores no lists,
// and every Neighbors call computes the exact list of its group.
func New(space *groups.Space) *Index {
	n := space.Len()
	ix := &Index{space: space, sizes: space.Sizes()}
	ix.scratch.New = func() any {
		return &scratch{cnt: make([]int32, n), touched: make([]int32, 0, 1024)}
	}
	return ix
}

// Size returns the member count of group gid.
func (ix *Index) Size(gid int) int { return ix.sizes[gid] }

// BuildParallel materializes the top frac ∈ (0,1] of each group's
// inverted list, the §II-A operating point E2 studies, over `workers`
// goroutines (<= 0 means runtime.NumCPU()). frac is measured against
// |G|−1 (the paper's definition), but zero-similarity entries are
// never stored: the materialized prefix of g is min(ceil(frac·(|G|−1)),
// #overlapping groups) entries long. Each group's list depends only on
// the immutable space, so groups shard across workers — each block of
// groups takes its own pooled scratch and writes only its own slots in
// lists/overlapCount, making the result bit-identical to the 1-worker
// build (TestParallelBuildEquivalence holds this invariant).
func BuildParallel(space *groups.Space, frac float64, workers int) (*Index, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("index: fraction must be in (0,1], got %v", frac)
	}
	n := space.Len()
	ix := New(space)
	ix.lists = make([][]Neighbor, n)
	ix.overlapCount = make([]int, n)
	// Only the kept prefix is ever sorted: quickselect pushes the top
	// `keep` entries to the front, then a partial sort orders just
	// those — the full list would cost ~10× more comparisons at the
	// paper's 10% fraction.
	parallel.Range(n, workers, func(_, lo, hi int) {
		sc := ix.scratch.Get().(*scratch)
		defer ix.scratch.Put(sc)
		for gid := lo; gid < hi; gid++ {
			full := ix.accumulate(gid, 0, sc)
			ix.overlapCount[gid] = len(full)
			keep := prefixLen(frac, n-1)
			if keep > len(full) {
				keep = len(full)
			}
			topk.Select(full, keep, compareNeighbors)
			prefix := full[:keep]
			slices.SortFunc(prefix, compareNeighbors)
			ix.lists[gid] = append([]Neighbor(nil), prefix...)
		}
	})
	return ix, nil
}

// compareNeighbors is the list order: higher similarity first, ties
// by ascending id. Ids are unique, so it is a strict total order.
func compareNeighbors(a, b Neighbor) int {
	switch {
	case a.Sim > b.Sim:
		return -1
	case a.Sim < b.Sim:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// prefixLen returns ceil(frac · total), at least 1 when total > 0.
func prefixLen(frac float64, total int) int {
	if total <= 0 {
		return 0
	}
	k := int(frac * float64(total))
	if float64(k) < frac*float64(total) {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}

// accumulate computes the unsorted entries of gid's inverted list with
// similarity ≥ minSim (every non-zero entry at minSim 0) by walking the
// user→groups lists once: after the scan, cnt[h] = |g ∩ h| for every
// overlapping group h, so each similarity is a division rather than a
// bitset pass. sc.cnt must be all-zero on entry and is re-zeroed before
// returning (only touched entries are reset).
func (ix *Index) accumulate(gid int, minSim float64, sc *scratch) []Neighbor {
	g := ix.space.Group(gid)
	cnt, tt := sc.cnt, sc.touched[:0]
	g.Members.Range(func(u int) bool {
		for _, hid := range ix.space.GroupsOfUser(u) {
			if cnt[hid] == 0 {
				tt = append(tt, hid)
			}
			cnt[hid]++
		}
		return true
	})
	out := make([]Neighbor, 0, len(tt))
	sizeG := ix.sizes[gid]
	for _, hid := range tt {
		inter := cnt[hid]
		cnt[hid] = 0
		if int(hid) == gid {
			continue
		}
		union := sizeG + ix.sizes[hid] - int(inter)
		if union > 0 && inter > 0 {
			if sim := float64(inter) / float64(union); sim >= minSim {
				out = append(out, Neighbor{ID: hid, Inter: inter, Sim: sim})
			}
		}
	}
	sc.touched = tt
	return out
}

// MaterializedLen returns the materialized prefix length for gid.
func (ix *Index) MaterializedLen(gid int) int { return len(ix.lists[gid]) }

// Neighbors returns the top-k most similar groups to gid, by
// descending similarity with ties by ascending id. On a New index, and
// on a built one when k exceeds the materialized prefix, the exact
// list is computed on the fly (the fallback that keeps partial
// materialization safe) into a fresh slice; DisableFallback turns the
// fallback off, so the prefix is all there is. A lookup served from
// the prefix shares its memory and must not be modified.
func (ix *Index) Neighbors(gid, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	if list, ok := ix.prefix(gid, k); ok {
		return list
	}
	return ix.ExactNeighbors(gid, k)
}

// prefix returns the materialized answer to Neighbors(gid, k), or
// false when the lookup needs the exact fallback (always on a New
// index).
func (ix *Index) prefix(gid, k int) ([]Neighbor, bool) {
	if ix.lists == nil {
		return nil, false
	}
	list := ix.lists[gid]
	if k <= len(list) {
		return list[:k:k], true
	}
	// Prefix-only mode, or the prefix already holds every non-zero
	// entry.
	return list, ix.DisableFallback || len(list) >= ix.overlapCount[gid]
}

// Similar returns, in no particular order, the entries of gid's
// inverted list with similarity ≥ minSim, cut to the k that Neighbors
// ranks first when more than k pass. This is Neighbors(gid, k) without
// the entries below minSim, as a set: the bound is a threshold on the
// first sort key, so filtering commutes with taking the top k. On a New
// index the result is a fresh slice and only a cut costs a quickselect.
// On a built one a lookup the prefix answers is served from it, the
// prefix and DisableFallback applying as they do to Neighbors; such a
// result is sorted, shares the prefix's memory and must not be
// modified.
func (ix *Index) Similar(gid int, minSim float64, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	if list, ok := ix.prefix(gid, k); ok {
		keep := len(list)
		for i, nb := range list {
			if nb.Sim < minSim {
				keep = i
				break
			}
		}
		return list[:keep]
	}
	return ix.exact(gid, minSim, k)
}

// ExactNeighbors always computes the exact top-k of gid's non-zero
// inverted list, into a fresh slice the caller may keep — the New
// index's lookup and the ground truth for recall measurements (E2).
// Only the top k are sorted; compareNeighbors is a total order, so the
// result equals a full sort truncated to k.
func (ix *Index) ExactNeighbors(gid, k int) []Neighbor {
	out := ix.exact(gid, 0, k)
	slices.SortFunc(out, compareNeighbors)
	return out
}

// exact computes the entries of gid's list with similarity ≥ minSim
// into a fresh slice, unsorted, cut by quickselect to the first k by
// compareNeighbors only when more than k pass.
func (ix *Index) exact(gid int, minSim float64, k int) []Neighbor {
	sc := ix.scratch.Get().(*scratch)
	out := ix.accumulate(gid, minSim, sc)
	ix.scratch.Put(sc)
	k = max(0, k)
	if len(out) > k {
		topk.Select(out, k, compareNeighbors)
		out = out[:k]
	}
	return out
}

// MemoryBytes estimates the materialized footprint: one Neighbor per
// stored entry plus slice headers.
func (ix *Index) MemoryBytes() int {
	const entryBytes = 16 // int32 id + int32 overlap + float64 sim
	const headerBytes = 24
	total := 0
	for _, l := range ix.lists {
		total += headerBytes + entryBytes*len(l)
	}
	return total
}
