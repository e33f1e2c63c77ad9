package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the metric tables must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func (d *metricDef) UnmarshalJSON(b []byte) error {
	var raw struct{ Name, Unit, Better string }
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	*d = metricDef{raw.Name, raw.Unit, raw.Better}
	return nil
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func toyRun(t *testing.T, workload string, trace bool, wrap wrapFunc) result {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 1, trace: trace, sizes: toySizes, wrap: wrap, out: t.TempDir()}
	var log bytes.Buffer
	res, err := run(o, &log)
	if err != nil {
		t.Fatalf("%s (trace %v): %v\n%s", workload, trace, err, log.String())
	}
	return res
}

// Every workload, untraced and traced, emits every metric of its table
// with the unit and direction BENCHMARK.json declares, and passes its
// output checks.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads(toySizes)) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads(toySizes)))
	}
	for _, tc := range []struct {
		trace bool
		file  []metricDef
		table []metricDef
	}{{false, bf.EndToEnd, endToEnd}, {true, bf.PerLayer, perLayer}} {
		if len(tc.file) != len(tc.table) {
			t.Fatalf("trace %v: BENCHMARK.json has %d metrics, the benchmark %d", tc.trace, len(tc.file), len(tc.table))
		}
		for i, d := range tc.file {
			if d != tc.table[i] {
				t.Errorf("metric %d: BENCHMARK.json %+v, benchmark %+v", i, d, tc.table[i])
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: direction %q", d.name, d.better)
			}
		}
		for _, w := range bf.Workloads {
			res := toyRun(t, w.Name, tc.trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", w.Name, tc.trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(tc.table) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.Name, tc.trace, len(res.Metrics), len(tc.table))
			}
			for _, d := range tc.table {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want unit %s", w.Name, tc.trace, d.name, m, d.unit)
				}
			}
		}
	}
}

// tamperWriter rewrites what a handler sends before it reaches the
// client: the ETag header, and the id lines of event-stream frames.
type tamperWriter struct {
	http.ResponseWriter
	etag    func(string) string
	ids     func(uint64) uint64
	wrote   bool
	pending []byte
}

var idLine = regexp.MustCompile(`(?m)^id: (\d+)$`)

func (w *tamperWriter) WriteHeader(code int) {
	if !w.wrote && w.etag != nil {
		if e := w.Header().Get("ETag"); e != "" {
			w.Header().Set("ETag", w.etag(e))
		}
	}
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *tamperWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	if w.ids == nil {
		return w.ResponseWriter.Write(b)
	}
	// Rewrite whole frames only, so an id split across writes is seen.
	w.pending = append(w.pending, b...)
	end := bytes.LastIndex(w.pending, []byte("\n\n"))
	if end < 0 {
		return len(b), nil
	}
	frames := idLine.ReplaceAllFunc(w.pending[:end+2], func(m []byte) []byte {
		id, _ := strconv.ParseUint(string(m[len("id: "):]), 10, 64)
		return []byte("id: " + strconv.FormatUint(w.ids(id), 10))
	})
	w.pending = append([]byte(nil), w.pending[end+2:]...)
	if _, err := w.ResponseWriter.Write(frames); err != nil {
		return 0, err
	}
	return len(b), nil
}

func (w *tamperWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func tamperGateway(mk func(w http.ResponseWriter, r *http.Request) http.ResponseWriter) wrapFunc {
	return func(layer string, h http.Handler) http.Handler {
		if layer != "gateway" {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tw := mk(w, r); tw != nil {
				w = tw
			}
			h.ServeHTTP(w, r)
		})
	}
}

// A gateway that serves a wrong validator on action batches, or skips
// an event id on the stream, fails the run.
func TestTamperedOutputFailsRun(t *testing.T) {
	cases := map[string]func(w http.ResponseWriter, r *http.Request) http.ResponseWriter{
		"etag": func(w http.ResponseWriter, r *http.Request) http.ResponseWriter {
			if !strings.HasSuffix(r.URL.Path, "/actions") {
				return nil
			}
			return &tamperWriter{ResponseWriter: w, etag: func(e string) string { return strings.TrimSuffix(e, `"`) + `0"` }}
		},
		"sse-id": func(w http.ResponseWriter, r *http.Request) http.ResponseWriter {
			if !strings.HasSuffix(r.URL.Path, "/events") {
				return nil
			}
			return &tamperWriter{ResponseWriter: w, ids: func(id uint64) uint64 {
				if id >= 3 {
					return id + 1
				}
				return id
			}}
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			res := toyRun(t, "browse", false, tamperGateway(mk))
			if res.Correct || res.Failed == 0 {
				t.Fatalf("tampered %s: correct %v with %d of %d failed", name, res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}
