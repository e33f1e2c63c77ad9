package groups

import (
	"fmt"
	"slices"

	"vexus/internal/bitset"
	"vexus/internal/parallel"
)

// Group is a set of users sharing the terms of its description. ID is
// the group's position in its Space and is stable for the lifetime of
// the space.
type Group struct {
	ID      int
	Desc    Description
	Members *bitset.Set
}

// Size returns the number of members. Code holding the group's Space
// reads Space.Sizes instead, which counts them once.
func (g *Group) Size() int { return g.Members.Count() }

// Jaccard returns the Jaccard similarity of the two groups' member
// sets, the similarity the paper's inverted index is sorted by (§II-A).
func (g *Group) Jaccard(other *Group) float64 {
	return g.Members.Jaccard(other.Members)
}

// Space is an immutable collection of discovered groups over one
// dataset's user universe, plus the user→groups inverted lists needed
// to walk the overlap graph without O(n²) scans, and each group's
// size. The sizes are counted once, while the space is built; the
// size order, the index's Jaccard and the ingest diff all read them.
type Space struct {
	NumUsers int
	Vocab    *Vocab
	groups   []*Group

	// userGroups[u] lists ids of groups containing user u, ascending.
	userGroups [][]int32
	// sizes[gid] is the member count of group gid.
	sizes []int
	byKey map[string]int
}

// NewSpace builds a space from discovered groups with one worker per
// CPU. Group IDs are assigned by position. Duplicate descriptions are
// rejected; duplicate member sets are allowed (distinct closed
// descriptions can share members across term spaces).
func NewSpace(numUsers int, vocab *Vocab, gs []*Group) (*Space, error) {
	return NewSpaceParallel(numUsers, vocab, gs, 0)
}

// NewSpaceParallel is NewSpace with an explicit worker count (<= 0
// means runtime.NumCPU()). Validation, id assignment, and the
// duplicate-description check stay sequential (they are cheap and the
// first-duplicate error must be deterministic); the expensive pass —
// inverting every group's member set into the user→groups lists — is
// sharded: each worker inverts one contiguous gid range into a private
// partial table, and partials concatenate per user in shard order, so
// every userGroups list comes out ascending at any worker count.
func NewSpaceParallel(numUsers int, vocab *Vocab, gs []*Group, workers int) (*Space, error) {
	s := &Space{
		NumUsers:   numUsers,
		Vocab:      vocab,
		groups:     gs,
		userGroups: make([][]int32, numUsers),
		sizes:      make([]int, len(gs)),
		byKey:      make(map[string]int, len(gs)),
	}
	for i, g := range gs {
		if g.Members.Len() != numUsers {
			return nil, fmt.Errorf("groups: group %d universe %d != %d", i, g.Members.Len(), numUsers)
		}
		g.ID = i
		key := g.Desc.Key()
		if _, dup := s.byKey[key]; dup {
			return nil, fmt.Errorf("groups: duplicate description %q", g.Desc.Label(vocab))
		}
		s.byKey[key] = i
	}
	s.invert(workers)
	return s, nil
}

// invert fills userGroups and sizes from the groups' member sets,
// count then fill: transient memory is workers×numUsers int32 counters
// (4 bytes per cell, no slice headers, no append growth) and every
// per-user list is allocated exactly once at its final size, at any
// worker count. Small spaces run on one worker, on the calling
// goroutine.
func (s *Space) invert(workers int) {
	n := len(s.groups)
	w := parallel.Workers(workers, n)
	if n < 256 {
		w = 1
	}
	// Static contiguous shards: shard k owns gids [bounds[k], bounds[k+1]).
	bounds := make([]int, w+1)
	for k := 0; k <= w; k++ {
		bounds[k] = k * n / w
	}
	// Pass 1: each shard counts its per-user memberships into its own
	// counter row, and the size of each of its groups.
	counts := make([][]int32, w)
	parallel.ForEach(w, w, func(_, shard int) {
		cnt := make([]int32, s.NumUsers)
		for gid := bounds[shard]; gid < bounds[shard+1]; gid++ {
			size := 0
			s.groups[gid].Members.Range(func(u int) bool {
				cnt[u]++
				size++
				return true
			})
			s.sizes[gid] = size
		}
		counts[shard] = cnt
	})
	// Per-user exclusive prefix sums turn counts[shard][u] into the
	// write offset of shard k's segment in user u's list, and give the
	// exact final length to allocate.
	parallel.Range(s.NumUsers, w, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			total := int32(0)
			for k := 0; k < w; k++ {
				c := counts[k][u]
				counts[k][u] = total
				total += c
			}
			if total > 0 {
				s.userGroups[u] = make([]int32, total)
			}
		}
	})
	// Pass 2: each shard re-walks its gids in ascending order, writing
	// into its own segment (counts[shard][u] is now that shard's write
	// cursor — each cell is touched by exactly one shard). Segments are
	// ordered by shard and shards are ascending gid ranges, so every
	// merged list is globally ascending — identical to the sequential
	// build.
	parallel.ForEach(w, w, func(_, shard int) {
		cur := counts[shard]
		for gid := bounds[shard]; gid < bounds[shard+1]; gid++ {
			s.groups[gid].Members.Range(func(u int) bool {
				s.userGroups[u][cur[u]] = int32(gid)
				cur[u]++
				return true
			})
		}
	})
}

// Len returns the number of groups.
func (s *Space) Len() int { return len(s.groups) }

// Group returns the group with the given id.
func (s *Space) Group(id int) *Group { return s.groups[id] }

// Groups returns all groups; the slice must not be modified.
func (s *Space) Groups() []*Group { return s.groups }

// Sizes returns each group's member count, indexed by group id; the
// slice must not be modified.
func (s *Space) Sizes() []int { return s.sizes }

// ByDescription returns the group with exactly this description, or
// nil. The lookup does not allocate while the key fits in 64 bytes.
func (s *Space) ByDescription(d Description) *Group {
	var buf [64]byte
	if i, ok := s.byKey[string(d.appendKey(buf[:0]))]; ok {
		return s.groups[i]
	}
	return nil
}

// GroupsOfUser returns ids of groups containing user u. The returned
// slice must not be modified.
func (s *Space) GroupsOfUser(u int) []int32 {
	if u < 0 || u >= len(s.userGroups) {
		return nil
	}
	return s.userGroups[u]
}

// SortBySize orders group ids by descending member count (ties by
// ascending id) — the default presentation order of GROUPVIZ. It sorts
// one key per id, the size's complement above the id, whose ascending
// order is that order; a comparator called through a function value
// costs several times more per comparison. Sizes and ids both fit in
// 32 bits: ids are stored as int32 in userGroups, and a size is at
// most the user count.
func (s *Space) SortBySize(ids []int) {
	keys := make([]uint64, len(ids))
	for i, id := range ids {
		keys[i] = uint64(^uint32(s.sizes[id]))<<32 | uint64(uint32(id))
	}
	slices.Sort(keys)
	for i, k := range keys {
		ids[i] = int(uint32(k))
	}
}

// Stats summarizes a space for reports and logs.
type Stats struct {
	NumGroups   int
	NumUsers    int
	MinSize     int
	MaxSize     int
	MeanSize    float64
	MeanDescLen float64
	Coverage    float64 // fraction of users in ≥1 group
}

// ComputeStats scans the space once (one worker per CPU) and returns
// summary statistics.
func (s *Space) ComputeStats() Stats { return s.ComputeStatsParallel(0) }

// ComputeStatsParallel is ComputeStats with an explicit worker count
// (<= 0 means runtime.NumCPU()). Every accumulator is commutative —
// integer sums, min/max, bitset union — so per-worker partials merge
// to the same Stats no matter how groups shard across workers.
func (s *Space) ComputeStatsParallel(workers int) Stats {
	st := Stats{NumGroups: len(s.groups), NumUsers: s.NumUsers}
	if len(s.groups) == 0 {
		return st
	}
	type partial struct {
		minSize, maxSize int
		sumSize, sumDesc int
		covered          *bitset.Set
		seen             bool
	}
	w := parallel.Workers(workers, len(s.groups))
	parts := make([]partial, w)
	parallel.Range(len(s.groups), w, func(worker, lo, hi int) {
		p := &parts[worker]
		if p.covered == nil {
			p.covered = bitset.New(s.NumUsers)
		}
		for gid := lo; gid < hi; gid++ {
			g := s.groups[gid]
			sz := s.sizes[gid]
			p.sumSize += sz
			p.sumDesc += len(g.Desc)
			if !p.seen || sz < p.minSize {
				p.minSize = sz
			}
			if sz > p.maxSize {
				p.maxSize = sz
			}
			p.seen = true
			p.covered.InPlaceUnion(g.Members)
		}
	})
	covered := bitset.New(s.NumUsers)
	sumSize, sumDesc, seen := 0, 0, false
	for i := range parts {
		p := &parts[i]
		if !p.seen {
			continue
		}
		sumSize += p.sumSize
		sumDesc += p.sumDesc
		if !seen || p.minSize < st.MinSize {
			st.MinSize = p.minSize
		}
		if p.maxSize > st.MaxSize {
			st.MaxSize = p.maxSize
		}
		seen = true
		covered.InPlaceUnion(p.covered)
	}
	st.MeanSize = float64(sumSize) / float64(len(s.groups))
	st.MeanDescLen = float64(sumDesc) / float64(len(s.groups))
	if s.NumUsers > 0 {
		st.Coverage = float64(covered.Count()) / float64(s.NumUsers)
	}
	return st
}
