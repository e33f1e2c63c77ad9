package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vexus/internal/action"
	"vexus/internal/rng"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sizes    sizes
	// wrap interposes on the gateway and shard handlers (tests).
	wrap wrapFunc
	// out holds the run's scratch snapshots (removed at the end) and
	// the span files of traced runs.
	out string
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runState is everything one run accumulates.
type runState struct {
	o     options
	wl    workload
	check *checker
	tr    *tracer
	root  string
	c     *vexusCluster
	log   io.Writer
	pool  [][]step // the analyst trails, played in seed-chosen orders
	t0    time.Time

	setup      []float64
	restarts   []float64
	passes     []*recorder // the measured passes (traced ones in traced runs)
	ingestPass []int       // ingest samples taken by the end of each pass
	rec        *recorder   // all measured passes (the traced ones in traced runs)
	untraced   *recorder   // traced runs: the untraced half
	warm       *recorder
	ingest     samples
	ingTrace   []string
	version    uint64 // engine version of the live corpus after the run
	heapMB     float64
	gcPause    time.Duration
	metrics    map[string]metricValue
}

func (rs *runState) logf(format string, args ...any) { fmt.Fprintf(rs.log, format+"\n", args...) }

// run executes one workload end to end and returns its result. An error
// means the run could not be carried out at all.
func run(o options, log io.Writer) (result, error) {
	wl, ok := workloads(o.sizes)[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (browse, focus)", o.workload)
	}
	root := filepath.Join(o.out, fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)
	rs := &runState{o: o, wl: wl, check: &checker{}, root: root, log: log, metrics: map[string]metricValue{}, t0: time.Now()}
	if o.trace {
		rs.tr = newTracer()
	}
	defer func() {
		if rs.c != nil {
			rs.c.close()
		}
	}()
	if err := rs.execute(); err != nil {
		return result{}, err
	}
	res := result{
		Correct:   rs.check.failed == 0,
		Attempted: rs.check.attempted,
		Failed:    rs.check.failed,
		Metrics:   rs.metrics,
	}
	for _, msg := range rs.check.first {
		rs.logf("check failed: %s", msg)
	}
	return res, nil
}

// wrapLayers composes the test hook with the tracer's handler spans.
func (rs *runState) wrapLayers() wrapFunc {
	return func(layer string, h http.Handler) http.Handler {
		if rs.o.wrap != nil {
			h = rs.o.wrap(layer, h)
		}
		if rs.tr != nil {
			name := spanShard
			if layer == "gateway" {
				name = spanGateway
			}
			h = rs.tr.wrap(name, h)
		}
		return h
	}
}

func (rs *runState) execute() error {
	sz := rs.o.sizes
	if err := rs.setupCluster(); err != nil {
		return err
	}
	shardURLs := []string{rs.c.shards[0].web.url, rs.c.shards[1].web.url}
	for _, u := range shardURLs {
		if err := warmDataset(u, liveName); err != nil {
			return err
		}
	}

	gw := rs.c.web.url
	cl := newClient(gw, rs.check, rs.tr)
	defer cl.close()
	streamHC := &http.Client{Transport: &http.Transport{}}
	defer streamHC.CloseIdleConnections()
	an := &analyst{c: cl, streamHC: streamHC, shards: shardURLs, dataset: mainName, k: shardGreedy().K}

	// Warm-up: fixed trails on the base engine. Their explores give
	// objective_mean (deterministic per seed) and their exported trails
	// feed the layer pass.
	rs.warm = newRecorder()
	for _, trail := range rs.passOrder(0)[:sz.warmTrails] {
		if err := an.runTrail(trail, false, rs.warm); err != nil {
			return fmt.Errorf("warm-up trail: %w", err)
		}
	}

	wcl := newClient(gw, rs.check, rs.tr)
	defer wcl.close()
	w := &writer{c: wcl, r: newBatchRNG(rs.o.seed), n: sz.batchAuthors, version: 1}

	// The measured part is a series of passes, each playing the whole
	// trail pool once, so every pass does the same work. After each
	// trail come the ingest probe batches and restarts due by then, so
	// every metric's samples span the whole run: the speed of a shared
	// machine swings for seconds at a time. Passes continue until the
	// analyst has been measured for --seconds. A traced run leaves its
	// first half untraced, for the overhead.
	rs.rec, rs.untraced = newRecorder(), newRecorder()
	var applyBefore, applyAfter map[string][2]float64
	var ms0, ms1 runtime.MemStats
	total := time.Duration(rs.o.seconds * float64(time.Second))
	var measured time.Duration
	for pass := 1; measured < total || len(rs.passes) == 0; pass++ {
		if rs.tr != nil && pass > 1 && measured >= total/2 && !rs.tr.on.Load() {
			rs.tr.on.Store(true)
			applyBefore = rs.applyTotals()
			runtime.ReadMemStats(&ms0)
		}
		rec := newRecorder()
		runtime.GC()
		for _, trail := range rs.passOrder(pass) {
			start := time.Now()
			if err := an.runTrail(trail, true, rec); err != nil {
				return err
			}
			measured += time.Since(start)
			if err := rs.catchUp(w, float64(measured)/float64(total)); err != nil {
				return err
			}
		}
		if rs.tr != nil && !rs.tr.on.Load() {
			rs.untraced.add(rec)
		} else {
			rs.rec.add(rec)
			rs.passes = append(rs.passes, rec)
			rs.ingestPass = append(rs.ingestPass, len(w.lat))
		}
	}
	if err := rs.catchUp(w, 1); err != nil {
		return err
	}
	if rs.tr != nil {
		applyAfter = rs.applyTotals()
		runtime.ReadMemStats(&ms1)
		rs.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	}
	rs.ingest, rs.ingTrace, rs.version = w.lat, w.traces, w.version
	for i, u := range shardURLs {
		rs.check.attempt()
		v, err := datasetVersion(u, liveName)
		if err != nil {
			return err
		}
		if v != rs.version {
			rs.check.fail("shard %d serves %s at version %d, ingests acknowledged %d", i, liveName, v, rs.version)
		}
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs.heapMB = float64(ms.HeapAlloc) / 1e6
	rs.logf("measured part done at %.1fs", time.Since(rs.t0).Seconds())
	if rs.tr != nil {
		return rs.layerPass(an, w, applyBefore, applyAfter)
	}
	return rs.endToEnd()
}

// passOrder returns the pool's trails in the order of the run's n-th
// pass; pass 0 is the warm-up, which plays a prefix of it.
func (rs *runState) passOrder(n int) [][]step {
	if rs.pool == nil {
		for i := 0; i < rs.o.sizes.pool; i++ {
			rs.pool = append(rs.pool, rs.wl.trail(rng.New(dataSeed).Split(uint64(i))))
		}
	}
	var out [][]step
	for _, i := range rng.New(rs.o.seed).Split(uint64(n)).Perm(len(rs.pool)) {
		out = append(out, rs.pool[i])
	}
	return out
}

// setupCluster times cluster set-up — generate the data, build (or
// load) the engines on both shards, start the gateway, and serve the
// first session through it — several times, each in a fresh snapshot
// directory, and keeps the last cluster.
func (rs *runState) setupCluster() error {
	for i := 0; i < rs.o.sizes.setups; i++ {
		if rs.c != nil {
			rs.c.close()
			rs.c = nil
		}
		runtime.GC()
		start := time.Now()
		c, err := startCluster(filepath.Join(rs.root, fmt.Sprintf("setup%d", i)), rs.wl.specs, mainName, rs.wrapLayers())
		if err != nil {
			return fmt.Errorf("cluster set-up: %w", err)
		}
		rs.c = c
		cl := newClient(c.web.url, rs.check, nil)
		st, _, err := cl.create(mainName)
		if err == nil {
			err = cl.delete(c.web.url + "/api/v1/sessions/" + st.Session)
		}
		cl.close()
		if err != nil {
			return fmt.Errorf("first session: %w", err)
		}
		rs.setup = append(rs.setup, time.Since(start).Seconds())
	}
	return nil
}

// catchUp runs the ingest probe batches and restarts due once the
// analyst has been measured for the share frac of the run, so that
// their samples span the run like the analyst's. A traced run probes
// only in its traced half, where the probes' spans are recorded.
func (rs *runState) catchUp(w *writer, frac float64) error {
	frac = math.Min(1, frac)
	sz := rs.o.sizes
	if rs.tr == nil || rs.tr.on.Load() {
		for float64(len(w.lat)) < math.Ceil(frac*float64(sz.probe)) {
			runtime.GC()
			if err := w.post(liveName); err != nil {
				return fmt.Errorf("ingest probe: %w", err)
			}
		}
	}
	for float64(len(rs.restarts)) < math.Ceil(frac*float64(sz.restarts)) {
		if err := rs.measureRestart(w.version); err != nil {
			return err
		}
	}
	return nil
}

// measureRestart copies shard 0's snapshot directory and times a fresh
// catalog serving its first sessions from the copy: on the analyst's
// base engine and on the live corpus, whose snapshot carries a delta
// for every probe batch so far. It checks that the restart reloads
// the versions the cluster serves.
func (rs *runState) measureRestart(written uint64) error {
	dir := filepath.Join(rs.root, fmt.Sprintf("restart%d", len(rs.restarts)))
	if err := copyDir(rs.c.shards[0].dir, dir); err != nil {
		return err
	}
	runtime.GC()
	rs.check.attempt()
	d, v, err := restart(dir, rs.wl.specs, mainName, liveName)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if v[0] != 1 || v[1] != written {
		rs.check.fail("restart reloaded %s at version %d and %s at %d, want 1 and %d", mainName, v[0], liveName, v[1], written)
	}
	rs.restarts = append(rs.restarts, d.Seconds())
	return os.RemoveAll(dir)
}

// endToEnd derives the user-visible metrics of an untraced run.
func (rs *runState) endToEnd() error {
	rec := rs.rec
	vals := map[string]float64{
		"setup_s":         median(rs.setup),
		"explore_mean_ms": rec.lat[action.Explore].meanMS(),
		"explore_p90_ms":  rec.lat[action.Explore].quantileMS(0.9),
		"focus_p50_ms":    rec.lat[action.Focus].quantileMS(0.5),
		"focus_p90_ms":    rec.lat[action.Focus].quantileMS(0.9),
		"brush_p50_ms":    rec.lat[action.Brush].quantileMS(0.5),
		"push_p50_ms":     rec.push.quantileMS(0.5),
		"ingest_p50_ms":   rs.ingest.quantileMS(0.5),
		"restart_s":       median(rs.restarts),
		"objective_mean":  rs.warm.objSum / float64(rs.warm.objN),
		"heap_mb":         rs.heapMB,
	}
	rs.logf("samples: explore %d, focus %d, brush %d, push %d, ingest %d, setups %d, restarts %d, objective over %d explores",
		len(rec.lat[action.Explore]), len(rec.lat[action.Focus]), len(rec.lat[action.Brush]),
		len(rec.push), len(rs.ingest), len(rs.setup), len(rs.restarts), rs.warm.objN)
	rs.logPasses()
	return rs.emit(endToEnd, vals)
}

// logPasses prints each latency metric pass by pass, which shows how
// steady the machine was during the run.
func (rs *runState) logPasses() {
	row := func(name string, f func(i int) float64) {
		var parts []string
		for i := range rs.passes {
			parts = append(parts, fmt.Sprintf("%.2f", f(i)))
		}
		rs.logf("by pass %-15s %s", name, strings.Join(parts, " "))
	}
	row("explore_mean_ms", func(i int) float64 { return rs.passes[i].lat[action.Explore].meanMS() })
	for _, q := range []struct {
		name string
		op   action.Kind
		q    float64
	}{{"explore_p90_ms", action.Explore, 0.9},
		{"focus_p50_ms", action.Focus, 0.5}, {"focus_p90_ms", action.Focus, 0.9}, {"brush_p50_ms", action.Brush, 0.5}} {
		row(q.name, func(i int) float64 { return rs.passes[i].lat[q.op].quantileMS(q.q) })
	}
	row("push_p50_ms", func(i int) float64 { return rs.passes[i].push.quantileMS(0.5) })
	lo := 0
	row("ingest_p50_ms", func(i int) float64 {
		v := rs.ingest[lo:rs.ingestPass[i]].quantileMS(0.5)
		lo = rs.ingestPass[i]
		return v
	})
}

// emit fills the result's metrics from vals, in table order, refusing a
// metric that was not measured.
func (rs *runState) emit(defs []metricDef, vals map[string]float64) error {
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		rs.metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		rs.logf("%-32s %14.4f %-6s (%s is better)", d.name, v, d.unit, d.better)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}
