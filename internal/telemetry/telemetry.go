// Package telemetry is the dependency-free observability layer behind
// every VEXUS serving surface: atomic counters, gauges and fixed-bucket
// histograms collected in a Registry, a hand-rolled Prometheus
// text-exposition encoder (expose.go — the same stdlib-only discipline
// as internal/store's snapshot codec), HTTP middleware that records
// per-route/status request metrics and propagates trace ids (http.go),
// and the X-Vexus-Trace request-tracing helpers (trace.go).
//
// Instruments are nil-receiver safe by design: a nil *Registry yields
// nil instruments whose methods are no-ops, so instrumented code never
// branches on an "is telemetry on" flag — it just calls Inc/Observe.
// Every serving surface runs with a live registry, so the end-to-end
// latencies wallbench measures include the instruments' cost; nothing
// measures that cost on its own.
//
// The hot-path contract: Counter.Inc / Gauge.Add / Histogram.Observe
// are single atomic operations (Observe is three: bucket, count, sum);
// vector lookups (CounterVec.With) take one RLock-guarded map read.
// Nothing on the observe path allocates after the first use of a label
// combination.
package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The nil Counter (from a
// nil registry) is a valid no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer value that can go up and down. The nil Gauge is
// a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: observations are counted
// into the first bucket whose upper bound is >= the value (Prometheus
// `le` semantics), with an implicit +Inf bucket past the last bound.
// The nil Histogram is a valid no-op.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomicFloat
}

// DefBuckets covers interactive request/action latencies in seconds,
// 0.5ms to 10s — the default for every HTTP and action histogram.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// SlowBuckets covers offline work (engine builds, snapshot loads,
// ingest rebuilds), 5ms to 2 minutes.
var SlowBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v; past the end = the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the running total of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// atomicFloat is an atomically updated float64 (CAS on the bit
// pattern) — the histogram sum accumulator.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := floatBits(floatFrom(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return floatFrom(f.bits.Load()) }

// metricKind discriminates what a family holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindGaugeVecFunc
	kindHistogram
)

// family is one metric name: its metadata plus every labeled child.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64

	mu       sync.RWMutex
	children map[string]any            // joined label values → *Counter/*Gauge/*Histogram
	fn       func() float64            // kindGaugeFunc
	vfn      func() map[string]float64 // kindGaugeVecFunc: label value → gauge
}

// labelSep joins label values into a child key; 0xff cannot appear in
// UTF-8 label values, so the join is unambiguous.
const labelSep = "\xff"

func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic("telemetry: " + f.name + ": got " + itoa(len(values)) + " label values, want " + itoa(len(f.labels)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = make()
	f.children[key] = c
	return c
}

// Registry owns a set of metric families. The nil Registry is a valid
// no-op sink: every instrument it yields is nil.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family registers (or returns the already registered) family under
// name. Registration is idempotent so layers sharing a registry can
// each declare the instruments they use; a kind or label mismatch on
// the same name panics — that is a programming error, not a runtime
// condition.
func (r *Registry) family(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic("telemetry: conflicting registration of " + name)
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		bounds:   bounds,
		children: make(map[string]any),
	}
	r.families[name] = f
	return f
}

// Counter registers (idempotently) and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindCounter, nil, nil)
	return f.child(nil, func() any { return new(Counter) }).(*Counter)
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindGauge, nil, nil)
	return f.child(nil, func() any { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers a gauge evaluated at exposition time — the shape
// for values that already live somewhere (resident engines, live
// sessions) and would be a liability to mirror on every change. The
// first registration of a name wins.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.family(name, help, kindGaugeFunc, nil, nil)
	f.mu.Lock()
	if f.fn == nil {
		f.fn = fn
	}
	f.mu.Unlock()
}

// GaugeVecFunc registers a one-label gauge family evaluated at
// exposition time: fn returns label value → gauge for every child the
// family should currently expose. The labeled sibling of GaugeFunc,
// for state that already lives somewhere as a keyed breakdown — the
// membership directory's members-by-state counts are the motivating
// case. The first registration of a name wins.
func (r *Registry) GaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	if r == nil {
		return
	}
	f := r.family(name, help, kindGaugeVecFunc, []string{label}, nil)
	f.mu.Lock()
	if f.vfn == nil {
		f.vfn = fn
	}
	f.mu.Unlock()
}

// Histogram registers and returns an unlabeled histogram over bounds
// (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindHistogram, nil, bounds)
	return f.child(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// CounterVec is a counter family with labels; With resolves one child.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, kindCounter, labels, nil)}
}

// With resolves the child counter for the given label values (in
// declaration order).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, kindGauge, labels, nil)}
}

// With resolves the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family over bounds (nil =
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.family(name, help, kindHistogram, labels, bounds)}
}

// With resolves the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}
