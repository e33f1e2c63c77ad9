package greedy

import (
	"reflect"
	"sync"
	"testing"

	"vexus/internal/feedback"
)

// TestPoolParallelEquivalence: candidate scoring sharded across
// workers must leave SelectNext deterministic — same ids, same
// objective — as the 1-worker path, with and without a feedback
// profile. The space is large enough (700 groups, near-full pools)
// that big focal groups cross parallelPoolMin.
func TestPoolParallelEquivalence(t *testing.T) {
	s, ix := fixture(t, 31, 120, 700)
	fb := feedback.New()
	fb.Reinforce(s.Group(3), 1)
	fb.Reinforce(s.Group(11), 1)
	for _, profile := range []*feedback.Vector{nil, fb} {
		for _, focal := range []int{0, 5, 42} {
			base := DefaultConfig()
			base.TimeLimit = 0 // pure construction: fully deterministic
			base.MinSimilarity = 0
			base.Workers = 1
			want, err := New(s, ix).SelectNext(s.Group(focal), profile, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				cfg := base
				cfg.Workers = workers
				got, err := New(s, ix).SelectNext(s.Group(focal), profile, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.IDs, want.IDs) {
					t.Fatalf("focal=%d workers=%d: ids %v != %v", focal, workers, got.IDs, want.IDs)
				}
				if got.Objective != want.Objective || got.Candidates != want.Candidates {
					t.Fatalf("focal=%d workers=%d: objective/candidates %v/%d != %v/%d",
						focal, workers, got.Objective, got.Candidates, want.Objective, want.Candidates)
				}
			}
		}
	}
}

// TestSelectNextConcurrentCallers: one Optimizer shared by goroutines,
// as the prefetcher shares its own, gives every call the selection a
// fresh optimizer gives. The calls share the pooled slot arrays of the
// profile's user part, so a call that saw another's slots, or a stale
// slot left by an earlier call, would move the alignment and the
// picks.
func TestSelectNextConcurrentCallers(t *testing.T) {
	s, ix := fixture(t, 31, 120, 700)
	fb := feedback.New()
	fb.Reinforce(s.Group(3), 1)
	fb.Reinforce(s.Group(11), 1)
	cfg := DefaultConfig()
	cfg.TimeLimit = 0
	cfg.MinSimilarity = 0
	cfg.Workers = 1
	focals := []int{0, 5, 42, 99, 123, 250, 311, 640}
	want := make([]Selection, len(focals))
	for i, f := range focals {
		sel, err := New(s, ix).SelectNext(s.Group(f), fb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sel
	}
	o := New(s, ix)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range focals {
					j := (i + w) % len(focals)
					got, err := o.SelectNext(s.Group(focals[j]), fb, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got.IDs, want[j].IDs) || got.Objective != want[j].Objective {
						t.Errorf("caller %d focal=%d: ids %v objective %v, want %v %v",
							w, focals[j], got.IDs, got.Objective, want[j].IDs, want[j].Objective)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
