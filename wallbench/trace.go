package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vexus/internal/telemetry"
)

// The tracer records spans around the calls the benchmark makes into
// each layer: the client's request, the gateway handler and the shard
// handler (both wrapped from outside the program), plus the direct
// action/greedy/index/core/lda/store calls of the layer pass. Spans
// stay in memory and are written out once, when the run ends.

// span is one timed call. Start and End are nanoseconds since the
// tracer was created; Parent is 0 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names of the request path, outermost first. A request's spans
// share the X-Vexus-Trace id the client mints; parents are resolved by
// nesting level when the spans are written.
const (
	spanClient  = "client"
	spanGateway = "cluster.gateway"
	spanShard   = "serve.handler"
)

var spanLevel = map[string]int{spanClient: 0, spanGateway: 1, spanShard: 2}

type tracer struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span when tracing is on, returning its id.
func (t *tracer) add(name, trace string, parent uint64, start, end time.Time) uint64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// wrap times every request a layer's handler serves under the span
// name, keyed by the request's trace id. Event streams last as long as
// their subscriber, so their spans get their own name.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		trace := r.Header.Get(telemetry.TraceHeader)
		start := time.Now()
		h.ServeHTTP(w, r)
		n := name
		if strings.HasSuffix(r.URL.Path, "/events") {
			n += ".events"
		}
		t.add(n, trace, 0, start, time.Now())
	})
}

// byTrace returns the request-path spans grouped by trace id, each
// group with parents resolved: a span's parent is the enclosing span
// one level up (the gateway fans an ingest out to several shard spans).
func (t *tracer) byTrace() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	groups := make(map[string][]int)
	for i, s := range t.spans {
		if levelOf(s.Name) >= 0 && s.Trace != "" {
			groups[s.Trace] = append(groups[s.Trace], i)
		}
	}
	out := make(map[string][]span, len(groups))
	for trace, idx := range groups {
		for _, i := range idx {
			child := &t.spans[i]
			lvl := levelOf(child.Name)
			for _, j := range idx {
				p := t.spans[j]
				if levelOf(p.Name) == lvl-1 && p.Start <= child.Start && child.End <= p.End {
					child.Parent = p.ID
				}
			}
		}
		for _, i := range idx {
			out[trace] = append(out[trace], t.spans[i])
		}
	}
	return out
}

func levelOf(name string) int {
	if strings.HasPrefix(name, spanClient+".") {
		return 0
	}
	if l, ok := spanLevel[name]; ok {
		return l
	}
	return -1
}

// selfTimes sums each span name's self time — its duration minus the
// part its children cover — and counts its spans.
func (t *tracer) selfTimes() map[string][2]float64 {
	t.byTrace() // resolve request-path parents
	t.mu.Lock()
	defer t.mu.Unlock()
	childCover := make(map[uint64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childCover[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][2]float64)
	for _, s := range t.spans {
		self := float64(s.End-s.Start-childCover[s.ID]) / 1e6
		cur := out[s.Name]
		out[s.Name] = [2]float64{cur[0] + self, cur[1] + 1}
	}
	return out
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	t.byTrace()
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sorted := append([]span(nil), t.spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
