package stream

import (
	"testing"

	"vexus/internal/groups"
	"vexus/internal/rng"
)

func TestConfigValidation(t *testing.T) {
	if m := New(Config{Support: 0, Epsilon: 0.001}); m.err == nil {
		t.Fatal("Support=0 accepted")
	}
	if m := New(Config{Support: 0.1, Epsilon: 0.2}); m.err == nil {
		t.Fatal("Epsilon >= Support accepted")
	}
	if m := New(Config{Support: 0.1, Epsilon: 0}); m.err == nil {
		t.Fatal("Epsilon=0 accepted")
	}
	m := New(Config{Support: 0.1, Epsilon: 0.01})
	if m.err != nil {
		t.Fatal(m.err)
	}
	if m.cfg.MaxLen != 3 || m.cfg.MaxTermsPerTxn != 24 {
		t.Fatalf("defaults not applied: %+v", m.cfg)
	}
}

func TestNoFalseNegatives(t *testing.T) {
	// Lossy counting guarantee: every itemset with true frequency
	// ≥ σ·N must be in the snapshot.
	r := rng.New(7)
	m := New(Config{Support: 0.2, Epsilon: 0.02, MaxLen: 2})
	trueCounts := map[string]int{}
	n := 5000
	for i := 0; i < n; i++ {
		var terms []groups.TermID
		// term 0 in 60% of txns, term 1 in 40%, both in ~24%.
		if r.Bool(0.6) {
			terms = append(terms, 0)
		}
		if r.Bool(0.4) {
			terms = append(terms, 1)
		}
		if r.Bool(0.05) {
			terms = append(terms, 2)
		}
		for _, id := range terms {
			trueCounts[keyOf([]groups.TermID{id})]++
		}
		if len(terms) >= 2 {
			trueCounts[keyOf(terms[:2])]++
		}
		m.Process(terms)
	}
	snap := m.Snapshot()
	inSnap := map[string]bool{}
	for _, fi := range snap {
		inSnap[fi.Terms.Key()] = true
	}
	for key, c := range trueCounts {
		if float64(c) >= 0.2*float64(n) && !inSnap[key] {
			t.Fatalf("frequent itemset %q (count %d) missing from snapshot", key, c)
		}
	}
	// And the rare term must NOT be reported (count ≈ 5% << 18%).
	if inSnap["2"] {
		t.Fatal("rare itemset reported as frequent")
	}
}

func TestCountError(t *testing.T) {
	// Maintained counts underestimate by at most Delta ≤ εN.
	m := New(Config{Support: 0.1, Epsilon: 0.01, MaxLen: 1})
	r := rng.New(11)
	n := 10_000
	trueCount := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			m.Process([]groups.TermID{0})
			trueCount++
		} else {
			m.Process([]groups.TermID{1})
		}
	}
	for _, fi := range m.Snapshot() {
		if fi.Terms.Key() == "0" {
			if fi.Count > trueCount {
				t.Fatalf("count %d exceeds true %d", fi.Count, trueCount)
			}
			if trueCount-fi.Count > int(0.01*float64(n))+1 {
				t.Fatalf("undercount %d exceeds εN", trueCount-fi.Count)
			}
			return
		}
	}
	t.Fatal("itemset {0} missing")
}

func TestMemoryBounded(t *testing.T) {
	// A stream of mostly-unique transactions must not accumulate
	// unbounded counters.
	m := New(Config{Support: 0.05, Epsilon: 0.01, MaxLen: 2})
	r := rng.New(13)
	for i := 0; i < 20_000; i++ {
		m.Process([]groups.TermID{
			groups.TermID(r.Intn(5000)),
			groups.TermID(r.Intn(5000)),
		})
	}
	// Lossy counting bound: O((1/ε)·log(εN)) per level — generous cap.
	if m.NumCounters() > 120_000 {
		t.Fatalf("counters = %d, memory not bounded", m.NumCounters())
	}
}

func TestProcessDedupsAndTruncates(t *testing.T) {
	m := New(Config{Support: 0.5, Epsilon: 0.1, MaxLen: 1, MaxTermsPerTxn: 2})
	m.Process([]groups.TermID{3, 3, 1, 2})
	// After sort+dedup {1,2,3}, truncation keeps {1,2}.
	snap := m.Snapshot()
	for _, fi := range snap {
		if fi.Terms.Key() == "3" {
			t.Fatal("truncated term counted")
		}
	}
	if m.N() != 1 {
		t.Fatalf("N = %d", m.N())
	}
}

func TestKeyRoundTrip(t *testing.T) {
	d := groups.NewDescription(3, 1, 7)
	key := keyOf(d)
	back := parseKey(key)
	if !back.Equal(d) {
		t.Fatalf("round trip %v -> %q -> %v", d, key, back)
	}
}

// N returns the number of transactions processed so far.
func (m *Miner) N() int { return m.n }
