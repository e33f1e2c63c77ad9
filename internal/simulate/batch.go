package simulate

import (
	"sort"

	"vexus/internal/bitset"
	"vexus/internal/core"
)

// Per-run generators derive through rng.Derive(seed, family|run): one
// stream family per batch kind, spaced apart in the high bits so run
// indices never overlap across kinds. The batch runners in parallel.go
// and their sequential references in parallel_test.go MUST use
// identical derivations — the workers-1/2/8 equivalence suites pin
// parallel == sequential.
const (
	mtStream     uint64 = 1 << 40
	stStream     uint64 = 2 << 40
	browseStream uint64 = 3 << 40
)

// MTBatchResult aggregates many MT runs (one committee-formation
// campaign in E4).
type MTBatchResult struct {
	Runs           int
	SuccessRate    float64
	MeanIterations float64 // over successful runs
	MeanCollected  float64
}

// STBatchResult aggregates many ST runs; SuccessRate is the
// satisfaction proxy of E5.
type STBatchResult struct {
	Runs           int
	SuccessRate    float64
	MeanIterations float64 // over successful runs
	MeanBestSim    float64
}

// CommitteeTarget builds an E4-style target set from a conference
// venue: authors who published at least minPubs times in the venue —
// "the kind of researcher the chair wants", geographically and
// demographically mixed by construction.
func CommitteeTarget(eng *core.Engine, venueItem string, minPubs, size int) *bitset.Set {
	d := eng.Data
	target := bitset.New(d.NumUsers())
	item := d.ItemIndex(venueItem)
	if item < 0 {
		return target
	}
	type uc struct{ u, c int }
	counts := make([]int, d.NumUsers())
	for _, a := range d.Actions {
		if a.Item == item {
			counts[a.User]++
		}
	}
	var all []uc
	for u, c := range counts {
		if c >= minPubs {
			all = append(all, uc{u, c})
		}
	}
	// Most-published first, deterministic ties (count desc, user asc —
	// a total order, since user ids are unique).
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].u < all[j].u
	})
	if size > len(all) {
		size = len(all)
	}
	for _, e := range all[:size] {
		target.Add(e.u)
	}
	return target
}
