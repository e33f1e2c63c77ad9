// Package stream implements in-core frequent itemset mining over user
// data streams in the style of Jin & Agrawal (ICDM 2005), the stream
// algorithm the paper names for streaming inputs (§II-A). It maintains
// approximate counts of itemsets up to a bounded length with the
// lossy-counting guarantee: after N transactions, every itemset whose
// true frequency is at least σ·N is reported (no false negatives), and
// every reported itemset has true frequency at least (σ−ε)·N.
//
// Memory is bounded: counters are pruned at every bucket boundary
// (width ⌈1/ε⌉), so at most O((1/ε)·log(εN)) counters per itemset
// length survive.
package stream

import (
	"fmt"
	"sort"
	"strings"

	"vexus/internal/groups"
)

// Config parameterizes the stream miner.
type Config struct {
	// Support σ ∈ (0,1]: itemsets with frequency ≥ σ·N are frequent.
	Support float64
	// Epsilon ε ∈ (0, σ): the lossy-counting error bound. Smaller ε
	// means more counters but tighter counts. Typical: σ/10.
	Epsilon float64
	// MaxLen caps itemset length (memory grows combinatorially with
	// it; 3 covers the group descriptions VEXUS displays).
	MaxLen int
	// MaxTermsPerTxn truncates pathological transactions before subset
	// enumeration (keeps the lowest term ids; 0 = 24).
	MaxTermsPerTxn int
}

// DefaultConfig mines up to 3-term groups at 1% support.
func DefaultConfig() Config {
	return Config{Support: 0.01, Epsilon: 0.001, MaxLen: 3}
}

// counter is one lossy-counting entry.
type counter struct {
	count int
	delta int
}

// Miner is the streaming state, driven incrementally with Process and
// read with Snapshot.
type Miner struct {
	cfg     Config
	n       int // transactions seen
	bucket  int // current bucket id = ⌈n/width⌉
	width   int
	entries map[string]*counter
	err     error
}

// New returns a stream miner. An invalid configuration leaves it inert:
// Process ignores its input and Snapshot returns nil.
func New(cfg Config) *Miner {
	m := &Miner{cfg: cfg, entries: make(map[string]*counter)}
	if cfg.Support <= 0 || cfg.Support > 1 {
		m.err = fmt.Errorf("stream: Support must be in (0,1], got %v", cfg.Support)
		return m
	}
	if cfg.Epsilon <= 0 || cfg.Epsilon >= cfg.Support {
		m.err = fmt.Errorf("stream: Epsilon must be in (0, Support), got %v", cfg.Epsilon)
		return m
	}
	if m.cfg.MaxLen <= 0 {
		m.cfg.MaxLen = 3
	}
	if m.cfg.MaxTermsPerTxn <= 0 {
		m.cfg.MaxTermsPerTxn = 24
	}
	m.width = int(1/cfg.Epsilon) + 1
	m.bucket = 1
	return m
}

// N returns the number of transactions processed so far.
func (m *Miner) N() int { return m.n }

// NumCounters returns the current number of in-core counters — the
// quantity the lossy-counting bound keeps small.
func (m *Miner) NumCounters() int { return len(m.entries) }

// Process consumes one transaction (a user's term set; it will be
// sorted and deduplicated in place).
func (m *Miner) Process(terms []groups.TermID) {
	if m.err != nil {
		return
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	w := 0
	for i, id := range terms {
		if i == 0 || id != terms[i-1] {
			terms[w] = id
			w++
		}
	}
	terms = terms[:w]
	if len(terms) > m.cfg.MaxTermsPerTxn {
		terms = terms[:m.cfg.MaxTermsPerTxn]
	}
	m.n++
	m.enumerate(terms, nil)
	if m.n%m.width == 0 {
		m.prune()
		m.bucket++
	}
}

// enumerate counts every non-empty subset of terms up to MaxLen.
func (m *Miner) enumerate(terms []groups.TermID, prefix []groups.TermID) {
	for i, id := range terms {
		next := append(prefix, id)
		m.bump(next)
		if len(next) < m.cfg.MaxLen {
			m.enumerate(terms[i+1:], next)
		}
	}
}

func (m *Miner) bump(itemset []groups.TermID) {
	key := keyOf(itemset)
	if c, ok := m.entries[key]; ok {
		c.count++
		return
	}
	m.entries[key] = &counter{count: 1, delta: m.bucket - 1}
}

func (m *Miner) prune() {
	for key, c := range m.entries {
		if c.count+c.delta <= m.bucket {
			delete(m.entries, key)
		}
	}
}

// FrequentItemset is one reported itemset with its approximate count.
type FrequentItemset struct {
	Terms groups.Description
	// Count is the maintained count; true count ∈ [Count, Count+Delta].
	Count int
	Delta int
}

// Snapshot returns itemsets whose maintained count is at least
// (σ−ε)·N, sorted by descending count then ascending key — the
// lossy-counting answer set.
func (m *Miner) Snapshot() []FrequentItemset {
	if m.err != nil || m.n == 0 {
		return nil
	}
	threshold := (m.cfg.Support - m.cfg.Epsilon) * float64(m.n)
	var out []FrequentItemset
	for key, c := range m.entries {
		if float64(c.count) >= threshold {
			out = append(out, FrequentItemset{
				Terms: parseKey(key),
				Count: c.count,
				Delta: c.delta,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return less(out[i].Terms, out[j].Terms)
	})
	return out
}

func keyOf(itemset []groups.TermID) string {
	var b strings.Builder
	for i, id := range itemset {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	return b.String()
}

func parseKey(key string) groups.Description {
	parts := strings.Split(key, ",")
	out := make(groups.Description, 0, len(parts))
	for _, p := range parts {
		var v int
		fmt.Sscanf(p, "%d", &v)
		out = append(out, groups.TermID(v))
	}
	return groups.NewDescription(out...)
}

func less(a, b groups.Description) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
