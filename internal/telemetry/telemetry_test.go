package telemetry

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// Bucket boundaries follow Prometheus le semantics: a value equal to a
// bound lands in that bound's bucket, a value just above it in the
// next one.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "", []float64{0.1, 0.5, 1})
	// value → expected bucket index (0:le=0.1, 1:le=0.5, 2:le=1, 3:+Inf)
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{0.05, 0},
		{0.1, 0}, // on the bound: le is inclusive
		{0.100001, 1},
		{0.5, 1},
		{0.75, 2},
		{1, 2},
		{1.01, 3},
		{1000, 3},
	}
	for _, c := range cases {
		before := make([]uint64, len(h.buckets))
		for i := range h.buckets {
			before[i] = h.buckets[i].Load()
		}
		h.Observe(c.v)
		for i := range h.buckets {
			delta := h.buckets[i].Load() - before[i]
			if i == c.want && delta != 1 {
				t.Errorf("Observe(%v): bucket %d not incremented", c.v, i)
			}
			if i != c.want && delta != 0 {
				t.Errorf("Observe(%v): bucket %d incremented, want only %d", c.v, i, c.want)
			}
		}
	}
	if h.Count() != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
	wantSum := 0.0
	for _, c := range cases {
		wantSum += c.v
	}
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

// Race-clean concurrent increments: exact totals under -race with
// goroutines hammering shared and per-goroutine label children.
func TestRegistryConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "")
	g := r.Gauge("level", "")
	vec := r.CounterVec("labeled_total", "", "worker")
	h := r.Histogram("obs_seconds", "", DefBuckets)

	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := vec.With(string(rune('a' + w%4)))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				mine.Inc()
				h.Observe(0.001)
				// Exposition races with writes — must be clean too.
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
	sum := uint64(0)
	for _, l := range []string{"a", "b", "c", "d"} {
		sum += vec.With(l).Value()
	}
	if sum != workers*perWorker {
		t.Fatalf("vec sum = %d, want %d", sum, workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
}

// The exposition must be valid Prometheus text format: HELP/TYPE
// headers, sorted series, cumulative buckets, escaped labels.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("vexus_a_total", "Counts a.").Add(3)
	r.Gauge("vexus_g", "A gauge.").Set(-2)
	r.GaugeFunc("vexus_fn", "Computed.", func() float64 { return 7 })
	v := r.CounterVec("vexus_http_requests_total", "Requests.", "route", "status")
	v.With("/api/v1/sessions", "201").Inc()
	v.With("/api/v1/sessions", "201").Inc()
	v.With(`weird"route\n`, "200").Inc()
	h := r.Histogram("vexus_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP vexus_a_total Counts a.\n# TYPE vexus_a_total counter\nvexus_a_total 3\n",
		"# TYPE vexus_g gauge\nvexus_g -2\n",
		"# TYPE vexus_fn gauge\nvexus_fn 7\n",
		`vexus_http_requests_total{route="/api/v1/sessions",status="201"} 2`,
		`vexus_http_requests_total{route="weird\"route\\n",status="200"} 1`,
		"# TYPE vexus_lat_seconds histogram",
		`vexus_lat_seconds_bucket{le="0.1"} 1`,
		`vexus_lat_seconds_bucket{le="1"} 2`, // cumulative
		`vexus_lat_seconds_bucket{le="+Inf"} 3`,
		// Same addition order as the observes, so exact equality holds.
		"vexus_lat_seconds_sum " + formatFloat(0.05+0.5+5),
		"vexus_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}

	// Families must appear in sorted order for byte-stable scrapes.
	if strings.Index(out, "vexus_a_total") > strings.Index(out, "vexus_g") {
		t.Error("families not sorted")
	}

	// And the handler must declare the text-format content type.
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if rec.Body.String() != out {
		t.Error("handler output differs from WritePrometheus")
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("vexus_a_total", "").Add(3)
	h := r.Histogram("vexus_lat_seconds", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	s := r.Snapshot()
	for series, want := range map[string]float64{
		"vexus_a_total":                       3,
		`vexus_lat_seconds_bucket{le="0.1"}`:  1,
		`vexus_lat_seconds_bucket{le="1"}`:    1,
		`vexus_lat_seconds_bucket{le="+Inf"}`: 2,
		"vexus_lat_seconds_count":             2,
		"vexus_lat_seconds_sum":               5.05,
	} {
		if got := s[series]; math.Abs(got-want) > 1e-9 {
			t.Errorf("snapshot[%q] = %v, want %v", series, got, want)
		}
	}
}

// A nil registry hands out nil instruments whose methods are no-ops —
// instrumented code must never need a nil check.
func TestDisabledRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	if c != nil {
		t.Fatal("nil registry returned a live counter")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("g", "")
	g.Set(3)
	g.Inc()
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("h_seconds", "", nil)
	h.Observe(1)
	if h.Count() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	vec := r.CounterVec("v_total", "", "l")
	vec.With("a").Inc()
	hv := r.HistogramVec("hv_seconds", "", nil, "l")
	hv.With("a").Observe(1)
	gv := r.GaugeVec("gv", "", "l")
	gv.With("a").Set(2)
	r.GaugeFunc("fn", "", func() float64 { return 1 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil exposition: err=%v len=%d", err, b.Len())
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

// Registration is idempotent: two layers asking for the same family
// share the same underlying instrument.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "help")
	b := r.Counter("shared_total", "other help ignored")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("instruments not shared")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting kind did not panic")
		}
	}()
	r.Gauge("shared_total", "")
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace id lengths %d/%d, want 16", len(a), len(b))
	}
	if a == b {
		t.Fatal("trace ids collide")
	}
	ctx := WithTrace(context.Background(), a)
	if got := TraceID(ctx); got != a {
		t.Fatalf("TraceID = %q, want %q", got, a)
	}
	if got := TraceID(context.Background()); got != "" {
		t.Fatalf("TraceID on bare ctx = %q, want empty", got)
	}
}
