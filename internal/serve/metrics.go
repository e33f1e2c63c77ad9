package serve

import (
	"encoding/json"
	"log/slog"
	"net/http"

	"vexus/internal/telemetry"
)

// serverMetrics bundles every instrument the serving layers share —
// one per Catalog, so in-process clusters (tests, LocalShard) keep
// per-shard metrics separate instead of bleeding into a global.
type serverMetrics struct {
	reg *telemetry.Registry
	log *slog.Logger

	http *telemetry.HTTPMetrics

	// Per-action-type apply latency, fed by the action.Session.Observe
	// hook wired at session creation.
	actionSeconds *telemetry.HistogramVec

	sessionsCreated *telemetry.Counter
	sessionsEvicted *telemetry.Counter
	sessionsExpired *telemetry.Counter

	engineEvictions *telemetry.Counter
	buildWaits      *telemetry.Counter
	buildSeconds    *telemetry.Histogram
	loadSeconds     *telemetry.Histogram

	streamSubscribers *telemetry.Gauge
	streamResumes     *telemetry.Counter
	streamResyncs     *telemetry.Counter
	streamDrops       *telemetry.Counter

	ingestBatches *telemetry.Counter
	ingestRows    *telemetry.CounterVec
	ingestRebuild *telemetry.Histogram
	ingestSwap    *telemetry.Histogram
	deltaChain    *telemetry.GaugeVec
}

// newServerMetrics registers the serve-layer families on reg and wires
// the live-occupancy gauges to the catalog (evaluated at scrape time —
// residency already lives in the catalog; mirroring it on every change
// would be a second source of truth).
func newServerMetrics(reg *telemetry.Registry, logger *slog.Logger, c *Catalog) *serverMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if logger == nil {
		logger = slog.Default()
	}
	m := &serverMetrics{
		reg:  reg,
		log:  logger,
		http: telemetry.NewHTTPMetrics(reg, "http", logger),

		actionSeconds: reg.HistogramVec("vexus_action_apply_seconds",
			"Apply latency per exploration action type.", telemetry.DefBuckets, "op"),

		sessionsCreated: reg.Counter("vexus_sessions_created_total", "Sessions created."),
		sessionsEvicted: reg.Counter("vexus_sessions_evicted_total", "Sessions evicted at capacity (LRU)."),
		sessionsExpired: reg.Counter("vexus_sessions_expired_total", "Sessions reaped by the TTL sweeper."),

		engineEvictions: reg.Counter("vexus_engine_evictions_total", "Resident engines evicted by the catalog LRU."),
		buildWaits:      reg.Counter("vexus_engine_build_waits_total", "Requests that waited on another goroutine's singleflight engine build."),
		buildSeconds:    reg.Histogram("vexus_engine_build_seconds", "Cold engine builds (full pipeline).", telemetry.SlowBuckets),
		loadSeconds:     reg.Histogram("vexus_engine_load_seconds", "Warm engine starts (snapshot load).", telemetry.SlowBuckets),

		streamSubscribers: reg.Gauge("vexus_stream_subscribers", "Live SSE subscribers."),
		streamResumes:     reg.Counter("vexus_stream_resumes_total", "Stream attaches resumed from the replay ring."),
		streamResyncs:     reg.Counter("vexus_stream_resyncs_total", "Stream attaches served a full-snapshot resync."),
		streamDrops:       reg.Counter("vexus_stream_drops_total", "Subscribers dropped to resync by queue overflow."),

		ingestBatches: reg.Counter("vexus_ingest_batches_total", "Ingest batches committed."),
		ingestRows:    reg.CounterVec("vexus_ingest_rows_total", "Rows ingested by kind.", "kind"),
		ingestRebuild: reg.Histogram("vexus_ingest_rebuild_seconds", "Engine rebuild time per ingest batch.", telemetry.SlowBuckets),
		ingestSwap:    reg.Histogram("vexus_ingest_swap_seconds", "Engine version-swap time (persist done to visible).", nil),
		deltaChain:    reg.GaugeVec("vexus_ingest_delta_chain", "Pending-delta chain length per dataset.", "dataset"),
	}
	reg.GaugeFunc("vexus_sessions_live", "Live sessions across all datasets.", func() float64 {
		total, _ := c.sessionCount()
		return float64(total)
	})
	reg.GaugeFunc("vexus_engines_resident", "Catalog engines currently resident.", func() float64 {
		return float64(c.residentCount())
	})
	return m
}

// handleHealthz is GET /api/v1/healthz: pure liveness — the process is
// up and serving. No dependency checks; a wedged catalog is a
// readiness problem, not a liveness one.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is GET /api/v1/readyz: readiness means the default
// dataset's engine is resident or loadable — BuildDefault runs the
// normal singleflight build-or-load, so the first readiness probe warms
// the default engine and a broken catalog reports 503 with the build
// error.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if err := s.cat.BuildDefault(); err != nil {
		http.Error(w, "catalog not ready: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ready\n"))
}

// handleShardMetrics is GET /internal/cluster/metrics: this shard's
// registry flattened to series→value JSON, the shape the gateway sums
// into its cluster rollup.
func (s *Server) handleShardMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.met.reg.Snapshot())
}

// residentCount reports how many catalog entries hold a resident
// engine — the vexus_engines_resident gauge.
func (c *Catalog) residentCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		if e.eng != nil {
			n++
		}
	}
	return n
}
