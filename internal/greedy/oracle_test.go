package greedy

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"vexus/internal/datagen"
	"vexus/internal/feedback"
	"vexus/internal/groups"
	"vexus/internal/index"
	"vexus/internal/mining"
	"vexus/internal/mining/lcm"
)

// referenceSelectNext is SelectNext with per-candidate construction:
// every round scores every live candidate with st.gain. It takes its
// pool from referencePool. Phase
// 2 is the production localSearch, and the clock is read at the same
// points as in SelectNext, so on a ticking test clock both reach phase
// 2 at the same tick.
func referenceSelectNext(o *Optimizer, focal *groups.Group, cands []candidate, cfg Config) Selection {
	start := o.now()
	deadline := start.Add(cfg.TimeLimit)
	unbounded := cfg.TimeLimit <= 0
	sel := Selection{Candidates: len(cands)}
	if len(cands) == 0 {
		sel.Diversity = 1
		return sel
	}
	st := newSelState(o.space, focal, cands, cfg)
	k := min(cfg.K, len(cands))
	deadlineHit := false
construct:
	for len(st.chosen) < k {
		if !unbounded && len(st.chosen) > 0 && o.now().After(deadline) {
			deadlineHit = true
			for ci := range cands {
				if len(st.chosen) >= k {
					break
				}
				if !st.inChosen[ci] {
					st.add(ci)
					sel.FilledBySimilarity++
				}
			}
			break construct
		}
		best, bestGain := -1, math.Inf(-1)
		for ci := range cands {
			if st.inChosen[ci] {
				continue
			}
			if gain := st.gain(ci); gain > bestGain {
				best, bestGain = ci, gain
			}
		}
		if best < 0 {
			break
		}
		st.add(best)
	}
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
	return sel
}

// referencePool builds the pool candidate by candidate from the
// sorted Neighbors list: it keeps the top cfg.CandidatePool entries,
// drops those below the similarity bound, probes each top feedback
// user's membership in every candidate and counts each candidate's
// overlap with focal on the bitsets, then insertion-sorts by weighted
// similarity when there is a profile.
func referencePool(o *Optimizer, focal *groups.Group, fb *feedback.Vector, cfg Config) []candidate {
	poolSize := cfg.CandidatePool
	if poolSize <= 0 {
		poolSize = DefaultConfig().CandidatePool
	}
	var cands []candidate
	var weighted []float64
	var topUsers []feedback.UserMass
	if fb != nil {
		topUsers = fb.TopUsers(128)
	}
	for _, nb := range o.ix.Neighbors(focal.ID, poolSize) {
		if nb.Sim < cfg.MinSimilarity {
			break
		}
		g := o.space.Group(int(nb.ID))
		align := 0.0
		if fb != nil {
			for _, id := range g.Desc {
				align += fb.TermScore(id)
			}
			for _, um := range topUsers {
				if g.Members.Contains(um.User) {
					align += um.Mass
				}
			}
		}
		cands = append(cands, candidate{
			members: g.Members, alignment: align, id: nb.ID,
			size: int32(g.Size()), inter: int32(g.Members.IntersectCount(focal.Members)),
		})
		weighted = append(weighted, nb.Sim*(1+align))
	}
	if fb != nil && !fb.IsEmpty() {
		less := func(i, j int) bool {
			if weighted[i] != weighted[j] {
				return weighted[i] > weighted[j]
			}
			return cands[i].id < cands[j].id
		}
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && less(j, j-1); j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
				weighted[j], weighted[j-1] = weighted[j-1], weighted[j]
			}
		}
	}
	return cands
}

// tickClock advances one microsecond per reading, so a budget is a
// fixed number of deadline checks whatever the machine's load.
func tickClock() func() time.Time {
	var ticks time.Duration
	return func() time.Time {
		ticks += time.Microsecond
		return time.Unix(0, 0).Add(ticks)
	}
}

// sameSelection fails the test unless got and want agree on the pick
// order, the pool size, the fallback fill, the local-search record and
// the bits of every objective term.
func sameSelection(t *testing.T, name string, got, want Selection) {
	t.Helper()
	if !reflect.DeepEqual(got.IDs, want.IDs) || got.Candidates != want.Candidates ||
		got.FilledBySimilarity != want.FilledBySimilarity ||
		got.SwapRounds != want.SwapRounds || got.DeadlineHit != want.DeadlineHit {
		t.Fatalf("%s: got ids %v candidates %d filled %d rounds %d hit %v; want %v %d %d %d %v", name,
			got.IDs, got.Candidates, got.FilledBySimilarity, got.SwapRounds, got.DeadlineHit,
			want.IDs, want.Candidates, want.FilledBySimilarity, want.SwapRounds, want.DeadlineHit)
	}
	for _, term := range []struct {
		name      string
		got, want float64
	}{
		{"objective", got.Objective, want.Objective},
		{"coverage", got.Coverage, want.Coverage},
		{"diversity", got.Diversity, want.Diversity},
		{"feedback", got.Feedback, want.Feedback},
	} {
		if math.Float64bits(term.got) != math.Float64bits(term.want) {
			t.Fatalf("%s: %s %v (%#x) != reference %v (%#x)", name, term.name,
				term.got, math.Float64bits(term.got), term.want, math.Float64bits(term.want))
		}
	}
}

// dbAuthorsSpace mines a 400-author DB-AUTHORS space: its universe
// spans seven words, where the random fixture's spans two.
func dbAuthorsSpace(t *testing.T) (*groups.Space, *index.Index) {
	t.Helper()
	d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 400, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := mining.Encode(d, datagen.DBAuthorsEncodeOptions())
	if err != nil {
		t.Fatal(err)
	}
	gs, err := lcm.New(mining.Options{MinSupport: 60, MaxLen: 3}).Mine(tx)
	if err != nil {
		t.Fatal(err)
	}
	s, err := groups.NewSpace(d.NumUsers(), tx.Vocab, gs)
	if err != nil {
		t.Fatal(err)
	}
	return s, index.New(s)
}

type oracleSpace struct {
	name string
	s    *groups.Space
	ix   *index.Index
}

// oracleSpaces returns the random fixture (600 groups over a 2-word
// universe) and the DB-AUTHORS space.
func oracleSpaces(t *testing.T) []oracleSpace {
	t.Helper()
	random, randomIx := fixture(t, 31, 120, 600)
	authors, authorsIx := dbAuthorsSpace(t)
	return []oracleSpace{{"random", random, randomIx}, {"dbauthors", authors, authorsIx}}
}

// TestConstructionMatchesReference: the cached construction and the
// pool's user-list walk pick exactly what the per-candidate reference
// picks, with bit-identical objective terms, for every focal group,
// with and without a feedback profile, across K, the similarity bound
// and the pool cap. Caps 8 and 64 sit below most groups' overlap
// counts, so the index cuts the pool before the pool sorts it.
func TestConstructionMatchesReference(t *testing.T) {
	for _, c := range oracleSpaces(t) {
		t.Run(c.name, func(t *testing.T) {
			fb := feedback.New()
			for _, gid := range []int{3, 11, 42} {
				fb.Reinforce(c.s.Group(gid%c.s.Len()), 1)
			}
			matchReference(t, New(c.s, c.ix), fb, []int{8, 64})
		})
	}
}

// matchReference runs SelectNext against the reference for every focal
// group of o's space, with and without fb, across the similarity bound
// and K, at the default pool cap and at one of the small caps. Every other focal group also runs one case of
// weightSweep on the full pool with fb, and every bigKEvery-th one a K
// above 255.
func matchReference(t *testing.T, o *Optimizer, fb *feedback.Vector, smallCaps []int) {
	t.Helper()
	for focal := 0; focal < o.space.Len(); focal++ {
		// The small cap rotates with the focal group.
		for _, pool := range []int{0, smallCaps[focal%len(smallCaps)]} {
			for _, profile := range []*feedback.Vector{nil, fb} {
				for _, minSim := range []float64{0, 0.01} {
					cfg := DefaultConfig()
					cfg.TimeLimit = 0
					cfg.CandidatePool = pool
					cfg.MinSimilarity = minSim
					cands := referencePool(o, o.space.Group(focal), profile, cfg)
					for _, k := range []int{1, 2, 7} {
						cfg.K = k
						matchOne(t, o, focal, profile, cands, cfg)
					}
				}
			}
		}
		if focal%2 == 0 {
			cfg := weightSweep[focal/2%len(weightSweep)].apply(DefaultConfig())
			cfg.TimeLimit = 0
			matchOne(t, o, focal, fb, referencePool(o, o.space.Group(focal), fb, cfg), cfg)
		}
		if focal%bigKEvery == bigKEvery/2 {
			cfg := DefaultConfig()
			cfg.TimeLimit = 0
			cfg.MinSimilarity = 0
			cfg.K, cfg.CandidatePool = bigK, bigKPool
			if cands := referencePool(o, o.space.Group(focal), fb, cfg); len(cands) > bigK {
				matchOne(t, o, focal, fb, cands, cfg)
			}
		}
	}
}

// weightSweep is the blend weights matchReference rotates through
// besides the default: coverage only, diversity only, the feedback
// term at full weight, and all zero, where every gain ties at 0.
var weightSweep = []weights{{1, 0, 0}, {0, 1, 0}, {0.5, 0.5, 1}, {0, 0, 0}}

type weights struct{ coverage, diversity, feedback float64 }

// apply returns cfg with w's blend weights.
func (w weights) apply(cfg Config) Config {
	cfg.CoverageWeight, cfg.DiversityWeight, cfg.FeedbackWeight = w.coverage, w.diversity, w.feedback
	return cfg
}

// bigK runs construction for more than 255 rounds, so a count of
// caught-up picks narrower than 16 bits wraps. It runs on every
// bigKEvery-th focal group whose pool, capped at bigKPool, holds more
// than bigK candidates; the reference's cost grows with K² · |pool|.
const (
	bigK      = 260
	bigKPool  = 270
	bigKEvery = 200
)

// matchOne runs SelectNext and the reference on one focal group and
// fails the test unless their selections agree.
func matchOne(t *testing.T, o *Optimizer, focal int, profile *feedback.Vector, cands []candidate, cfg Config) {
	t.Helper()
	want := referenceSelectNext(o, o.space.Group(focal), cands, cfg)
	got, err := o.SelectNext(o.space.Group(focal), profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameSelection(t, fmt.Sprintf("focal=%d profile=%v pool=%d minSim=%v k=%d weights=%v/%v/%v",
		focal, profile != nil, cfg.CandidatePool, cfg.MinSimilarity, cfg.K,
		cfg.CoverageWeight, cfg.DiversityWeight, cfg.FeedbackWeight), got, want)
}

// TestPrefixIndexMatchesReference: over a built 10% prefix, the pool
// serves from Neighbors, so with the fallback off SelectNext picks
// what the reference picks from the prefix alone, and with it on what
// the reference picks from the exact lists.
func TestPrefixIndexMatchesReference(t *testing.T) {
	s, _ := dbAuthorsSpace(t)
	fb := feedback.New()
	fb.Reinforce(s.Group(5), 1)
	for _, disable := range []bool{true, false} {
		t.Run(fmt.Sprintf("disableFallback=%v", disable), func(t *testing.T) {
			ix, err := index.BuildParallel(s, 0.1, 2)
			if err != nil {
				t.Fatal(err)
			}
			ix.DisableFallback = disable
			matchReference(t, New(s, ix), fb, []int{8})
		})
	}
}

// TestConstructionMatchesReferenceUnderBudget: on the ticking clock a
// budget that ends inside construction fills by similarity at the same
// round, and a budget that reaches local search starts it from the
// same set and so swaps the same way.
func TestConstructionMatchesReferenceUnderBudget(t *testing.T) {
	s, ix := dbAuthorsSpace(t)
	fb := feedback.New()
	fb.Reinforce(s.Group(5), 1)
	for _, budget := range []time.Duration{4 * time.Microsecond, 20 * time.Millisecond} {
		for _, focal := range []int{0, 7, 30} {
			cfg := DefaultConfig()
			cfg.TimeLimit = budget
			o := New(s, ix)
			o.now = tickClock()
			want := referenceSelectNext(o, s.Group(focal), referencePool(o, s.Group(focal), fb, cfg), cfg)
			o.now = tickClock()
			got, err := o.SelectNext(s.Group(focal), fb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("budget=%v focal=%d", budget, focal)
			sameSelection(t, name, got, want)
			if budget < time.Millisecond && got.FilledBySimilarity == 0 {
				t.Fatalf("%s: construction was not cut short", name)
			}
			if budget >= time.Millisecond && (got.FilledBySimilarity != 0 || got.SwapRounds == 0) {
				t.Fatalf("%s: no local search after full construction (%+v)", name, got)
			}
		}
	}
}

// TestGainCacheMatchesGain: in every round, every live candidate's
// cached gain is an upper bound on the per-candidate st.gain, and once
// the candidate catches up it has st.gain's bits, so ties and near-ties
// break as the reference breaks them. A rotating third of the live
// candidates catch up each round, so rows lag by one pick or by
// several.
func TestGainCacheMatchesGain(t *testing.T) {
	for _, c := range oracleSpaces(t) {
		fb := feedback.New()
		fb.Reinforce(c.s.Group(3), 1)
		fb.Reinforce(c.s.Group(11), 1)
		o := New(c.s, c.ix)
		d := DefaultConfig()
		for _, w := range append([]weights{{d.CoverageWeight, d.DiversityWeight, d.FeedbackWeight}}, weightSweep...) {
			cfg := w.apply(d)
			for _, focal := range []int{0, 1, 17, 99} {
				cands := o.pool(c.s.Group(focal), fb, cfg)
				st := newSelState(c.s, c.s.Group(focal), cands, cfg)
				k := min(cfg.K, len(cands))
				gc := newGainCache(st, k)
				for len(st.chosen) < k {
					round := len(st.chosen)
					name := fmt.Sprintf("%s weights=%v focal=%d round=%d", c.name, w, focal, round)
					before, covered := st.score(), st.covered.Count()
					best, bestGain := -1, math.Inf(-1)
					for ci := range cands {
						if st.inChosen[ci] {
							continue
						}
						want := st.gain(ci)
						if bound := gc.gain(ci, before, covered); !(bound >= want) {
							t.Fatalf("%s candidate %d: bound %v < gain %v", name, cands[ci].id, bound, want)
						}
						if (ci+round)%3 == 0 {
							gc.catchUp(ci)
							if got := gc.gain(ci, before, covered); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s candidate %d: caught-up gain %v != gain %v", name, cands[ci].id, got, want)
							}
						}
						if want > bestGain {
							best, bestGain = ci, want
						}
					}
					gc.add(best)
				}
			}
		}
	}
}
