package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one reported metric: its unit and which direction is
// better. The end-to-end table must agree with BENCHMARK.json; the
// package tests hold the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the cluster sees, reported by every
// untraced run on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"explore_mean_ms", "ms", "lower"},
	{"explore_p90_ms", "ms", "lower"},
	{"focus_p50_ms", "ms", "lower"},
	{"focus_p90_ms", "ms", "lower"},
	{"brush_p50_ms", "ms", "lower"},
	{"push_p50_ms", "ms", "lower"},
	{"ingest_p50_ms", "ms", "lower"},
	{"restart_s", "s", "lower"},
	{"objective_mean", "score", "higher"},
	{"heap_mb", "MB", "lower"},
}

// tracedOps are the session operations every workload issues; the
// per-op layer metrics are reported for each.
var tracedOps = []string{"create", "explore", "focus", "brush"}

// perLayer is what the traced run reports. Each entry's comment in
// README.md names the end-to-end metric it should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cluster.hop_ms", "ms", "lower"},
		{"cluster.ingest_fanout_ms", "ms", "lower"},
		{"serve.self_ms", "ms", "lower"},
		{"serve.response_kb", "KiB", "lower"},
		{"serve.ingest_ms", "ms", "lower"},
		{"stream.lag_ms", "ms", "lower"},
		{"stream.events", "count", "higher"},
		{"stream.resync_ratio", "ratio", "lower"},
		{"action.diff_ms", "ms", "lower"},
		{"greedy.select_ms", "ms", "lower"},
		{"greedy.candidates", "count", "lower"},
		{"greedy.filled_by_similarity", "count", "lower"},
		{"index.neighbors_us", "us", "lower"},
		{"core.focus_ms", "ms", "lower"},
		{"lda.project_ms", "ms", "lower"},
		{"core.brush_us", "us", "lower"},
		{"mining.encode_ms", "ms", "lower"},
		{"lcm.mine_ms", "ms", "lower"},
		{"groups.space_ms", "ms", "lower"},
		{"groups.count", "count", "higher"},
		{"index.build_ms", "ms", "lower"},
		{"index.bytes", "bytes", "lower"},
		{"core.ingest_ms", "ms", "lower"},
		{"store.save_ms", "ms", "lower"},
		{"store.load_ms", "ms", "lower"},
		{"store.delta_append_ms", "ms", "lower"},
		{"store.bytes", "bytes", "lower"},
		{"go.gc_pause_ms", "ms", "lower"},
		{"trace.overhead_ms", "ms", "lower"},
		{"split.client_mean_ms", "ms", "lower"},
		{"split.unattributed_ms", "ms", "lower"},
	}
	for _, op := range tracedOps {
		defs = append(defs, metricDef{"serve.handler_ms." + op, "ms", "lower"})
	}
	for _, op := range tracedOps[1:] {
		defs = append(defs, metricDef{"action.apply_ms." + op, "ms", "lower"})
	}
	for _, op := range append(tracedOps[1:], "ingest") {
		defs = append(defs, metricDef{"go.alloc_kb_per_op." + op, "KiB", "lower"})
	}
	return defs
}()

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// samples collects durations of one kind of operation.
type samples []time.Duration

func (s samples) quantileMS(q float64) float64 { return quantile(s.ms(), q) }

func (s samples) meanMS() float64 { return mean(s.ms()) }

func (s samples) ms() []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// quantile interpolates linearly between order statistics (the
// "inclusive" definition); NaN for no values.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
