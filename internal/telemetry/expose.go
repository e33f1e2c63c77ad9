package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// This file is the hand-rolled Prometheus text-exposition encoder
// (format version 0.0.4): # HELP / # TYPE headers, one line per
// series, histograms flattened to cumulative `_bucket{le=...}` plus
// `_sum` and `_count`. Families and children are emitted in sorted
// order so scrapes are byte-stable for a fixed metric state — the same
// determinism discipline as everything else in this repo, and what
// lets CI assert on exact series names.

// WritePrometheus encodes every registered family to w.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	typ := "counter"
	switch f.kind {
	case kindGauge, kindGaugeFunc, kindGaugeVecFunc:
		typ = "gauge"
	case kindHistogram:
		typ = "histogram"
	}
	if f.help != "" {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteByte('\n')
	}
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(typ)
	b.WriteByte('\n')

	if f.kind == kindGaugeFunc {
		f.mu.RLock()
		fn := f.fn
		f.mu.RUnlock()
		v := 0.0
		if fn != nil {
			v = fn()
		}
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(formatFloat(v))
		b.WriteByte('\n')
		return
	}
	if f.kind == kindGaugeVecFunc {
		for _, e := range f.evalVec() {
			writeSeries(b, f.name, labelPairs(f.labels, e.key), formatFloat(e.v))
		}
		return
	}

	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()

	for i, key := range keys {
		labels := labelPairs(f.labels, key)
		switch c := children[i].(type) {
		case *Counter:
			writeSeries(b, f.name, labels, formatFloat(float64(c.Value())))
		case *Gauge:
			writeSeries(b, f.name, labels, strconv.FormatInt(c.Value(), 10))
		case *Histogram:
			cum := uint64(0)
			for bi, bound := range c.bounds {
				cum += c.buckets[bi].Load()
				writeSeries(b, f.name+"_bucket", labels+sep(labels)+`le="`+formatFloat(bound)+`"`, strconv.FormatUint(cum, 10))
			}
			writeSeries(b, f.name+"_bucket", labels+sep(labels)+`le="+Inf"`, strconv.FormatUint(c.Count(), 10))
			writeSeries(b, f.name+"_sum", labels, formatFloat(c.Sum()))
			writeSeries(b, f.name+"_count", labels, strconv.FormatUint(c.Count(), 10))
		}
	}
}

// evalVec evaluates a kindGaugeVecFunc family to sorted-key order: a
// map iteration would make scrapes byte-unstable, which the exposition
// format promises not to be.
func (f *family) evalVec() []vecEntry {
	f.mu.RLock()
	fn := f.vfn
	f.mu.RUnlock()
	if fn == nil {
		return nil
	}
	vals := fn()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]vecEntry, len(keys))
	for i, k := range keys {
		out[i] = vecEntry{key: k, v: vals[k]}
	}
	return out
}

type vecEntry struct {
	key string
	v   float64
}

func sep(labels string) string {
	if labels == "" {
		return ""
	}
	return ","
}

func writeSeries(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// labelPairs renders `k1="v1",k2="v2"` from the family's label names
// and a child key (values joined by labelSep). Empty for unlabeled.
func labelPairs(names []string, key string) string {
	if len(names) == 0 {
		return ""
	}
	values := strings.Split(key, labelSep)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		if i < len(values) {
			b.WriteString(escapeLabel(values[i]))
		}
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float the way Prometheus expects: integers
// without a trailing .0, everything else in shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in Prometheus text format — mount it at
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Snapshot flattens the registry to series-name → value, histograms
// expanded to their _bucket/_sum/_count series — the JSON-friendly
// form behind /internal/cluster/metrics and the gateway's cluster
// rollup, where shard values are summed by identical series name.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, f := range fams {
		if f.kind == kindGaugeFunc {
			f.mu.RLock()
			fn := f.fn
			f.mu.RUnlock()
			if fn != nil {
				out[f.name] = fn()
			} else {
				out[f.name] = 0
			}
			continue
		}
		if f.kind == kindGaugeVecFunc {
			for _, e := range f.evalVec() {
				out[f.name+"{"+labelPairs(f.labels, e.key)+"}"] = e.v
			}
			continue
		}
		f.mu.RLock()
		for key, child := range f.children {
			series := f.name
			if labels := labelPairs(f.labels, key); labels != "" {
				series += "{" + labels + "}"
			}
			switch c := child.(type) {
			case *Counter:
				out[series] = float64(c.Value())
			case *Gauge:
				out[series] = float64(c.Value())
			case *Histogram:
				labels := labelPairs(f.labels, key)
				cum := uint64(0)
				for bi, bound := range c.bounds {
					cum += c.buckets[bi].Load()
					out[f.name+"_bucket{"+labels+sep(labels)+`le="`+formatFloat(bound)+`"}`] = float64(cum)
				}
				out[f.name+"_bucket{"+labels+sep(labels)+`le="+Inf"}`] = float64(c.Count())
				sumSeries, countSeries := f.name+"_sum", f.name+"_count"
				if labels != "" {
					sumSeries += "{" + labels + "}"
					countSeries += "{" + labels + "}"
				}
				out[sumSeries] = c.Sum()
				out[countSeries] = float64(c.Count())
			}
		}
		f.mu.RUnlock()
	}
	return out
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

func itoa(n int) string { return fmt.Sprintf("%d", n) }
