// Package greedy implements the best-effort selection of the k groups
// shown at every exploration step (§II-B): starting from the group the
// explorer clicked, it returns a set of k ≤ 7 neighbouring groups that
// maximizes a blend of coverage (of the focal group's members) and
// diversity (low redundancy among the returned groups), subject to a
// lower bound on similarity to the focal group, personalized by the
// feedback vector through a weighted similarity, and — critically —
// bounded by a wall-clock time limit. The paper sets the limit to
// 100 ms (the continuity-preserving latency of [6]) and reports ~90%
// diversity and ~85% coverage at that budget; the optimizer here is
// anytime in both phases: the greedy construction falls back to
// similarity-ranked filling if the deadline cuts it short, and any
// remaining budget is spent on local-search swaps that only improve
// the set.
//
// All evaluation is against the ≤ k chosen groups (never the whole
// candidate pool). Construction is lazy (Minoux's lazy greedy): each
// candidate keeps its Jaccards to the picks it has caught up with and
// the count of focal members it would newly cover as those picks left
// coverage. From them its gain is exact once it has caught up with
// every pick and an upper bound before, so a round catches a candidate
// up only when its bound beats the round's best so far: one popcount
// against each missing pick plus a pass over the sparse coverage delta
// that pick made. That is what lets the candidate pool be "every
// overlapping group" at interactive latencies. The pool itself is one
// index lookup (index.Similar), which hands over each candidate's
// overlap with the focal group, and one sort. Local search is not
// incremental: each of a sweep's k · |pool| swap trials costs O(k)
// Jaccards plus k − 1 bitset copy, intersect and union passes to
// rebuild coverage, so one sweep is O(k² · |pool|).
package greedy

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"vexus/internal/bitset"
	"vexus/internal/feedback"
	"vexus/internal/groups"
	"vexus/internal/index"
	"vexus/internal/parallel"
)

// Config parameterizes one selection step.
type Config struct {
	// K is the number of groups to return (the paper uses k ≤ 7).
	K int
	// TimeLimit bounds the optimization wall clock. Zero means "full
	// greedy construction, no local search".
	TimeLimit time.Duration
	// MinSimilarity is the lower bound on Jaccard similarity between
	// the focal group and any returned group (the paper's "lower-bound
	// on similarity"). Candidates below it are not considered.
	MinSimilarity float64
	// CoverageWeight and DiversityWeight blend the two §II-B quality
	// objectives; FeedbackWeight adds the profile-alignment term that
	// biases results toward the explorer's interest.
	CoverageWeight  float64
	DiversityWeight float64
	FeedbackWeight  float64
	// CandidatePool caps how many index neighbours are considered
	// (0 = defaultCandidatePool). Larger pools raise attainable quality
	// and cost.
	CandidatePool int
	// Workers bounds the goroutines scoring the candidate pool
	// (0 = runtime.NumCPU()). Scoring parallelizes only above
	// parallelPoolMin candidates; below it the spawn overhead exceeds
	// the work.
	Workers int
}

// defaultCandidatePool is the pool cap SelectNext (and the tests'
// exhaustive oracle) applies when Config.CandidatePool is 0, and
// DefaultConfig's value.
const defaultCandidatePool = 4096

// DefaultConfig mirrors the paper's operating point: k = 7, 100 ms.
func DefaultConfig() Config {
	return Config{
		K:               7,
		TimeLimit:       100 * time.Millisecond,
		MinSimilarity:   0.01,
		CoverageWeight:  0.5,
		DiversityWeight: 0.5,
		FeedbackWeight:  0.25,
		CandidatePool:   defaultCandidatePool,
	}
}

// Selection is the outcome of one optimization step.
type Selection struct {
	// IDs are the chosen group ids, in pick order.
	IDs []int
	// Coverage is the fraction of the focal group's members appearing
	// in at least one chosen group.
	Coverage float64
	// Diversity is 1 − mean pairwise Jaccard among chosen groups.
	Diversity float64
	// Feedback is the mean profile alignment of chosen groups.
	Feedback float64
	// Objective is the blended score the optimizer maximized.
	Objective float64
	// Elapsed is the wall clock actually spent.
	Elapsed time.Duration
	// SwapRounds counts completed local-search improvement rounds.
	SwapRounds int
	// Candidates is the pool size after the similarity filter.
	Candidates int
	// DeadlineHit reports whether the time limit cut optimization
	// short (as opposed to converging to a local optimum).
	DeadlineHit bool
	// FilledBySimilarity counts slots filled by the similarity
	// fallback because the deadline interrupted greedy construction.
	FilledBySimilarity int
}

// Optimizer selects next-step groups over one space + index.
type Optimizer struct {
	space *groups.Space
	ix    *index.Index
	// now is the clock SelectNext measures its budget against;
	// time.Now outside tests.
	now func() time.Time
	// slots pools the |G|-sized group id → pool slot arrays of the
	// profile's user part, so explores reuse one instead of allocating
	// per call. Each array is all-zero between uses.
	slots sync.Pool
}

// New returns an optimizer bound to a space and its similarity index.
func New(space *groups.Space, ix *index.Index) *Optimizer {
	o := &Optimizer{space: space, ix: ix, now: time.Now}
	n := space.Len()
	o.slots.New = func() any {
		slot := make([]int32, n)
		return &slot
	}
	return o
}

// candidate is one pool entry.
type candidate struct {
	members   *bitset.Set
	alignment float64 // feedback alignment
	id        int32
	size      int32 // |members|
	inter     int32 // |members ∩ focal|
}

// SelectNext returns up to cfg.K groups to display after the explorer
// clicks focal. fb may be nil (no personalization). The call returns
// within roughly cfg.TimeLimit plus one candidate scan.
func (o *Optimizer) SelectNext(focal *groups.Group, fb *feedback.Vector, cfg Config) (Selection, error) {
	start := o.now()
	if cfg.K <= 0 {
		return Selection{}, fmt.Errorf("greedy: K must be positive, got %d", cfg.K)
	}
	// Lazy construction's gain bound holds only while neither weight
	// is negative (or NaN).
	if !(cfg.CoverageWeight >= 0 && cfg.DiversityWeight >= 0) {
		return Selection{}, fmt.Errorf("greedy: CoverageWeight and DiversityWeight must be non-negative, got %v and %v",
			cfg.CoverageWeight, cfg.DiversityWeight)
	}
	if cfg.CandidatePool <= 0 {
		cfg.CandidatePool = defaultCandidatePool
	}
	deadline := start.Add(cfg.TimeLimit)
	unbounded := cfg.TimeLimit <= 0

	cands := o.pool(focal, fb, cfg)
	sel := Selection{Candidates: len(cands)}
	if len(cands) == 0 {
		sel.Diversity = 1
		sel.Elapsed = o.now().Sub(start)
		return sel, nil
	}

	st := newSelState(o.space, focal, cands, cfg)

	// Phase 1: greedy construction.
	k := cfg.K
	if k > len(cands) {
		k = len(cands)
	}
	var deadlineHit bool
	sel.FilledBySimilarity, deadlineHit = o.construct(newGainCache(st, k), deadline, unbounded)

	// Phase 2: anytime local search.
	if !unbounded && !deadlineHit {
		sel.SwapRounds, deadlineHit = o.localSearch(st, deadline)
	}

	sel.IDs = make([]int, len(st.chosen))
	for i, ci := range st.chosen {
		sel.IDs[i] = int(cands[ci].id)
	}
	sel.Coverage, sel.Diversity, sel.Feedback = st.objectives()
	sel.Objective = st.score()
	sel.Elapsed = o.now().Sub(start)
	sel.DeadlineHit = deadlineHit
	return sel, nil
}

// construct is phase 1: it adds k = gc.cols + 1 candidates to gc.st
// one at a time, each the one of largest marginal gain (ties to the
// earlier pool entry), scored lazily through gc. If the deadline lands
// mid-construction, the remaining slots fill with the best remaining
// candidates by weighted similarity (the pool's order) so the explorer
// always receives k groups — "best effort" in the paper's words. It
// returns how many slots that fallback filled and whether the deadline
// hit.
func (o *Optimizer) construct(gc *gainCache, deadline time.Time, unbounded bool) (filled int, deadlineHit bool) {
	st, k := gc.st, gc.cols+1
	for len(st.chosen) < k {
		if !unbounded && len(st.chosen) > 0 && o.now().After(deadline) {
			for ci := range st.cands {
				if len(st.chosen) >= k {
					break
				}
				if !st.inChosen[ci] {
					st.add(ci)
					filled++
				}
			}
			return filled, true
		}
		before, covered := st.score(), st.covered.Count()
		best, bestGain := -1, math.Inf(-1)
		for ci := range st.cands {
			if st.inChosen[ci] {
				continue
			}
			// A lagging candidate's gain is an upper bound on its
			// exact gain. A bound that does not beat the best so far
			// cannot win the round (ties go to the earlier entry), so
			// only a bound that does is caught up and scored exactly.
			gain := gc.gain(ci, before, covered)
			if gain > bestGain && int(gc.filled[ci]) < len(st.chosen) {
				gc.catchUp(ci)
				gain = gc.gain(ci, before, covered)
			}
			if gain > bestGain {
				best, bestGain = ci, gain
			}
		}
		if best < 0 {
			break
		}
		gc.add(best)
	}
	return filled, false
}

// gainCache holds construction's per-candidate state, filled lazily
// (Minoux's lazy greedy). Candidate ci has caught up with the first
// filled[ci] picks: row ci of jac holds its Jaccards to them, and
// newCov[ci] = |c ∩ focal \ covered| as those picks left covered. Once
// ci has caught up with every pick, gain equals selState.gain's bit for
// bit, since the row sums onto sumPair in pick order as gain sums it.
// Before that, the missing Jaccards are ≥ 0 and the stale newCov is ≥
// the current one, so gain is an upper bound on the exact gain: float
// rounding is monotone, and so is gainFrom while CoverageWeight and
// DiversityWeight are ≥ 0. Catching up one pick costs one popcount
// against that pick plus a pass over the focal members it newly
// covered, kept as its non-zero delta words.
type gainCache struct {
	st       *selState
	cols     int // k − 1: the k-th pick's column would never be read
	jac      []float64
	newCov   []int32
	filled   []int32
	deltaOff []int    // pick p's delta words are delta[deltaOff[p]:deltaOff[p+1]]
	deltaAt  []int32  // the index of each delta word
	delta    []uint64 // the words: the focal members a pick newly covered
}

func newGainCache(st *selState, k int) *gainCache {
	words := len(st.focal.Members.Words())
	gc := &gainCache{
		st:       st,
		cols:     k - 1,
		jac:      make([]float64, len(st.cands)*(k-1)),
		newCov:   make([]int32, len(st.cands)),
		filled:   make([]int32, len(st.cands)),
		deltaOff: make([]int, 1, k),
		deltaAt:  make([]int32, 0, words),
		delta:    make([]uint64, 0, words),
	}
	for ci := range st.cands {
		gc.newCov[ci] = st.cands[ci].inter
	}
	return gc
}

// gain returns the objective delta of adding candidate ci, given the
// round's before = st.score() and covered = st.covered.Count(): exact
// once ci has caught up with every pick, an upper bound before.
func (gc *gainCache) gain(ci int, before float64, covered int) float64 {
	st := gc.st
	sum := st.sumPair
	for _, s := range gc.jac[ci*gc.cols : ci*gc.cols+int(gc.filled[ci])] {
		sum += s
	}
	return st.gainFrom(before, covered+int(gc.newCov[ci]), sum, st.cands[ci].alignment)
}

// catchUp extends candidate ci's cache by every pick it has not seen.
func (gc *gainCache) catchUp(ci int) {
	st := gc.st
	c := &st.cands[ci]
	row, words, newCov := gc.jac[ci*gc.cols:], c.members.Words(), gc.newCov[ci]
	for col := int(gc.filled[ci]); col < len(st.chosen); col++ {
		p := &st.cands[st.chosen[col]]
		row[col] = jaccard(c.members.IntersectCount(p.members), int(c.size), int(p.size))
		if newCov > 0 {
			at := gc.deltaAt[gc.deltaOff[col]:gc.deltaOff[col+1]]
			delta := gc.delta[gc.deltaOff[col]:][:len(at)]
			for j, i := range at {
				newCov -= int32(bits.OnesCount64(words[i] & delta[j]))
			}
		}
	}
	gc.newCov[ci], gc.filled[ci] = newCov, int32(len(st.chosen))
}

// add commits candidate ci to the chosen set and, unless that was the
// k-th pick, records the focal members it newly covers for catchUp.
func (gc *gainCache) add(ci int) {
	st := gc.st
	if len(st.chosen) < gc.cols {
		focal, covered := st.focal.Members.Words(), st.covered.Words()
		for i, w := range st.cands[ci].members.Words() {
			if d := w & focal[i] &^ covered[i]; d != 0 {
				gc.deltaAt = append(gc.deltaAt, int32(i))
				gc.delta = append(gc.delta, d)
			}
		}
		gc.deltaOff = append(gc.deltaOff, len(gc.delta))
	}
	st.add(ci)
}

// jaccard is bitset.Jaccard's division for two sets of sizes a and b
// that share inter members: the same integers, so the same float64.
func jaccard(inter, a, b int) float64 {
	union := a + b - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// localSearch is phase 2, anytime local search: it swaps a chosen
// candidate for an unchosen one whenever that raises the objective,
// stopping at a local optimum or at the deadline. It returns the
// completed improvement rounds and whether the deadline hit.
func (o *Optimizer) localSearch(st *selState, deadline time.Time) (rounds int, deadlineHit bool) {
	for {
		improved := false
		for si := 0; si < len(st.chosen); si++ {
			for ci := range st.cands {
				if st.inChosen[ci] {
					continue
				}
				if o.now().After(deadline) {
					return rounds, true
				}
				if st.trySwap(si, ci) {
					improved = true
				}
			}
		}
		if !improved {
			return rounds, false
		}
		rounds++
	}
}

// parallelPoolMin is the pool size below which candidate scoring runs
// on the calling goroutine: an interactive step over a few dozen
// neighbours finishes faster than the fan-out would even start.
const parallelPoolMin = 512

// pool returns the candidates of one step: the groups the index finds
// at similarity ≥ cfg.MinSimilarity to focal, at most cfg.CandidatePool
// of them, sorted once by descending weighted similarity
// sim · (1 + alignment) (§II-B), ties by ascending id. That order is
// the deadline fallback's, so it fills with the *personalized* best;
// with no profile every alignment is 0, weighted equals sim, and the
// order is Neighbors'. Each candidate's size comes from the index, and
// its overlap with focal from the lookup's count.
func (o *Optimizer) pool(focal *groups.Group, fb *feedback.Vector, cfg Config) []candidate {
	nbs := o.ix.Similar(focal.ID, cfg.MinSimilarity, cfg.CandidatePool)
	// The term part of each candidate's alignment reads only the
	// immutable space and profile and writes only its own slot, so
	// large pools score across cfg.Workers goroutines with
	// sequential-identical results.
	cands := make([]candidate, len(nbs))
	score := func(i int) {
		nb := nbs[i]
		g := o.space.Group(int(nb.ID))
		align := 0.0
		if fb != nil {
			for _, id := range g.Desc {
				align += fb.TermScore(id)
			}
		}
		cands[i] = candidate{
			members:   g.Members,
			alignment: align,
			id:        nb.ID,
			size:      int32(o.ix.Size(int(nb.ID))),
			inter:     nb.Inter,
		}
	}
	if workers := parallel.Workers(cfg.Workers, len(nbs)); workers > 1 && len(nbs) >= parallelPoolMin {
		parallel.Range(len(nbs), workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				score(i)
			}
		})
	} else {
		for i := range nbs {
			score(i)
		}
	}
	// The user part adds the mass of the profile's top users: one walk
	// of each top user's group list, through a group id → pool slot
	// map, instead of a membership probe per candidate and user. Users
	// go in TopUsers order, after the terms, so every candidate's sum
	// adds the same terms in the same order as a per-candidate loop.
	if fb != nil {
		if topUsers := fb.TopUsers(128); len(topUsers) > 0 {
			slotp := o.slots.Get().(*[]int32)
			slot := *slotp // 1 + pool index; 0 = not in the pool
			for i := range cands {
				slot[cands[i].id] = int32(i + 1)
			}
			for _, um := range topUsers {
				for _, gid := range o.space.GroupsOfUser(um.User) {
					if i := slot[gid]; i > 0 {
						cands[i-1].alignment += um.Mass
					}
				}
			}
			for i := range cands {
				slot[cands[i].id] = 0
			}
			o.slots.Put(slotp)
		}
	}
	keys := make([]rankKey, len(cands))
	for i, nb := range nbs {
		keys[i] = rankKey{weighted: nb.Sim * (1 + cands[i].alignment), id: nb.ID, at: int32(i)}
	}
	slices.SortFunc(keys, compareRank)
	permute(cands, keys)
	return cands
}

// rankKey is a candidate's sort key and its slot before the sort. The
// pool sorts these 16-byte keys, then moves each candidate once.
type rankKey struct {
	weighted float64
	id       int32
	at       int32
}

// compareRank orders keys by descending weighted similarity, ties by
// ascending id. Ids are unique, so this is a strict total order and
// the unstable sort's output is the only sorted one.
func compareRank(a, b rankKey) int {
	switch {
	case a.weighted > b.weighted:
		return -1
	case a.weighted < b.weighted:
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// permute reorders cands in place so slot j holds the candidate that
// sat at keys[j].at. It follows each cycle of the permutation once,
// marking every slot it fills by pointing that slot's key at itself.
func permute(cands []candidate, keys []rankKey) {
	for s := range keys {
		if int(keys[s].at) == s {
			continue
		}
		first := cands[s]
		for j := s; ; {
			from := int(keys[j].at)
			keys[j].at = int32(j)
			if from == s {
				cands[j] = first
				break
			}
			cands[j] = cands[from]
			j = from
		}
	}
}

// selState tracks the chosen set. All incremental state is O(k):
// simChosen caches pairwise similarities among chosen groups, covered
// is the union of chosen∩focal.
type selState struct {
	space  *groups.Space
	focal  *groups.Group
	cands  []candidate
	cfg    Config
	chosen []int // candidate indices in pick order
	// simChosen[i][j] = Jaccard(chosen[i], chosen[j]); row/col order
	// follows chosen.
	simChosen [][]float64
	inChosen  []bool
	covered   *bitset.Set // union of chosen ∩ focal
	scratch   *bitset.Set // reusable intersection buffer
	sumPair   float64     // Σ pairwise sim among chosen
	sumAlign  float64
	focalN    int
}

func newSelState(space *groups.Space, focal *groups.Group, cands []candidate, cfg Config) *selState {
	return &selState{
		space:    space,
		focal:    focal,
		cands:    cands,
		cfg:      cfg,
		inChosen: make([]bool, len(cands)),
		covered:  bitset.New(focal.Members.Len()),
		scratch:  bitset.New(focal.Members.Len()),
		focalN:   focal.Size(),
	}
}

// objectives returns (coverage, diversity, feedback) of the chosen set.
func (st *selState) objectives() (cov, div, fbk float64) {
	if st.focalN > 0 {
		cov = float64(st.covered.Count()) / float64(st.focalN)
	} else {
		cov = 1
	}
	k := len(st.chosen)
	if k >= 2 {
		div = 1 - st.sumPair/float64(k*(k-1)/2)
	} else {
		div = 1
	}
	if k > 0 {
		fbk = st.sumAlign / float64(k)
	}
	return cov, div, fbk
}

func (st *selState) score() float64 {
	cov, div, fbk := st.objectives()
	return st.cfg.CoverageWeight*cov + st.cfg.DiversityWeight*div + st.cfg.FeedbackWeight*fbk
}

// gain returns the objective delta of adding candidate ci: one 3-way
// popcount for coverage plus ≤ k Jaccards for diversity. Local search
// evaluates swaps with it, and the tests keep it as the per-candidate
// reference that construction's cached gains must equal.
func (st *selState) gain(ci int) float64 {
	c := &st.cands[ci]
	newCovered := st.covered.Count() + c.members.IntersectDifferenceCount(st.focal.Members, st.covered)
	sum := st.sumPair
	for _, cj := range st.chosen {
		sum += c.members.Jaccard(st.cands[cj].members)
	}
	return st.gainFrom(st.score(), newCovered, sum, c.alignment)
}

// gainFrom returns score(chosen ∪ c) − before for a candidate c that
// would leave newCovered focal members covered, whose Jaccards to the
// chosen groups added onto sumPair give sum, and whose alignment is
// align.
func (st *selState) gainFrom(before float64, newCovered int, sum, align float64) float64 {
	cov := 1.0
	if st.focalN > 0 {
		cov = float64(newCovered) / float64(st.focalN)
	}
	k := len(st.chosen) + 1
	div := 1.0
	if k >= 2 {
		div = 1 - sum/float64(k*(k-1)/2)
	}
	fbk := (st.sumAlign + align) / float64(k)
	after := st.cfg.CoverageWeight*cov + st.cfg.DiversityWeight*div + st.cfg.FeedbackWeight*fbk
	return after - before
}

// add commits candidate ci to the chosen set.
func (st *selState) add(ci int) {
	c := &st.cands[ci]
	row := make([]float64, len(st.chosen))
	for i, cj := range st.chosen {
		s := c.members.Jaccard(st.cands[cj].members)
		row[i] = s
		st.simChosen[i] = append(st.simChosen[i], s)
		st.sumPair += s
	}
	st.simChosen = append(st.simChosen, append(row, 0))
	st.sumAlign += c.alignment
	st.chosen = append(st.chosen, ci)
	st.inChosen[ci] = true
	// covered ∪= (c ∩ focal), via the scratch buffer.
	st.scratch.Copy(c.members)
	st.scratch.InPlaceIntersect(st.focal.Members)
	st.covered.InPlaceUnion(st.scratch)
}

// removeAt drops chosen[si], returning the removed candidate index.
func (st *selState) removeAt(si int) int {
	ci := st.chosen[si]
	for i := range st.chosen {
		if i == si {
			continue
		}
		st.sumPair -= st.simChosen[si][i]
	}
	st.chosen = append(st.chosen[:si], st.chosen[si+1:]...)
	st.simChosen = append(st.simChosen[:si], st.simChosen[si+1:]...)
	for i := range st.simChosen {
		st.simChosen[i] = append(st.simChosen[i][:si], st.simChosen[i][si+1:]...)
	}
	st.sumAlign -= st.cands[ci].alignment
	st.inChosen[ci] = false
	// Recompute covered from the remaining ≤ k−1 groups.
	st.covered.Clear()
	for _, cj := range st.chosen {
		st.scratch.Copy(st.cands[cj].members)
		st.scratch.InPlaceIntersect(st.focal.Members)
		st.covered.InPlaceUnion(st.scratch)
	}
	return ci
}

// trySwap replaces chosen[si] with candidate ci if it improves the
// score; reports whether the swap was applied. The evaluation path
// costs O(k) Jaccards + O(k) bitset unions.
func (st *selState) trySwap(si, ci int) bool {
	before := st.score()
	old := st.removeAt(si)
	gain := st.gain(ci) // score(chosen∪ci) − score(chosen)
	// score(chosen) changed after removal; compare absolute scores.
	if st.score()+gain > before+1e-12 {
		st.add(ci)
		// Keep pick order stable: move the appended entry to slot si.
		st.moveLastTo(si)
		return true
	}
	st.add(old)
	st.moveLastTo(si)
	return false
}

// moveLastTo relocates the most recently added chosen entry (and its
// similarity rows) to position si, preserving the order of the rest.
func (st *selState) moveLastTo(si int) {
	last := len(st.chosen) - 1
	if si >= last {
		return
	}
	ci := st.chosen[last]
	copy(st.chosen[si+1:], st.chosen[si:last])
	st.chosen[si] = ci

	row := st.simChosen[last]
	copy(st.simChosen[si+1:], st.simChosen[si:last])
	st.simChosen[si] = row
	for i := range st.simChosen {
		r := st.simChosen[i]
		v := r[last]
		copy(r[si+1:], r[si:last])
		r[si] = v
	}
}
