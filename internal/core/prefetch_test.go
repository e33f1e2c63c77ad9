package core

import (
	"testing"
	"time"
)

func TestPrefetcherServesFromCache(t *testing.T) {
	eng := buildEngine(t)
	cfg := sessionCfg()
	cfg.TimeLimit = 30 * time.Millisecond

	s := eng.NewSession(cfg)
	s.Start()
	p := NewPrefetcher(s)
	p.PrefetchShown()
	p.Wait()

	gid := s.Shown()[0]
	start := time.Now()
	sel, cached, err := p.Explore(gid)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("prefetched click not served from cache")
	}
	if len(sel.IDs) == 0 {
		t.Fatal("cached selection empty")
	}
	// The cached path must be far below the optimizer budget (it
	// launches the *next* prefetch asynchronously).
	if elapsed > cfg.TimeLimit {
		t.Fatalf("cached explore took %v", elapsed)
	}
	// Session state advanced exactly like a live Explore.
	if s.Focal() != gid || len(s.History()) != 2 {
		t.Fatalf("session state wrong: focal=%d history=%d", s.Focal(), len(s.History()))
	}
	if s.Feedback().IsEmpty() {
		t.Fatal("feedback not reinforced on cached path")
	}
	p.Wait()
}

func TestPrefetcherFallsBackOnMiss(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	s.Start()
	p := NewPrefetcher(s)
	// No prefetch issued: must fall back to live optimization.
	gid := s.Shown()[1]
	sel, cached, err := p.Explore(gid)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("cache hit without prefetching")
	}
	if len(sel.IDs) == 0 && sel.Candidates > 0 {
		t.Fatal("live fallback returned nothing")
	}
	p.Wait()
}

func TestPrefetcherInvalidation(t *testing.T) {
	eng := buildEngine(t)
	cfg := sessionCfg()
	s := eng.NewSession(cfg)
	s.Start()
	p := NewPrefetcher(s)
	p.PrefetchShown()
	p.Wait()

	// A feedback mutation outside the prefetcher invalidates: the next
	// click must be a live computation.
	if _, err := s.Explore(s.Shown()[0]); err != nil {
		t.Fatal(err)
	}
	p.invalidate()
	_, cached, err := p.Explore(s.Shown()[0])
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("stale cache served after invalidation")
	}
	p.Wait()
}
