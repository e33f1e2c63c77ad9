package cluster

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"vexus/internal/telemetry"
)

// gatewayMetrics bundles the gateway's instruments — one per Gateway,
// mirroring serve's per-Catalog serverMetrics, so an in-process
// cluster (gateway + LocalShards in one binary) keeps every layer's
// metrics separate.
type gatewayMetrics struct {
	reg *telemetry.Registry
	log *slog.Logger

	http *telemetry.HTTPMetrics

	// latchWait is how long session-scoped requests blocked on the
	// per-session route latch — nonzero only when a request raced a
	// migration of its own session, so the histogram is the direct
	// measure of migration-induced client stall.
	latchWait *telemetry.Histogram

	migrations       *telemetry.Counter
	migrationSeconds *telemetry.Histogram

	// warmBytes / warmSeconds meter the warm-join snapshot pump: total
	// engine bytes streamed donor→joiner, and per-dataset transfer time.
	warmBytes   *telemetry.Counter
	warmSeconds *telemetry.Histogram
}

// newGatewayMetrics registers the gateway families on reg (nil = a
// fresh private registry), so every gateway route is instrumented.
func newGatewayMetrics(reg *telemetry.Registry, logger *slog.Logger) *gatewayMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if logger == nil {
		logger = slog.Default()
	}
	return &gatewayMetrics{
		reg:  reg,
		log:  logger,
		http: telemetry.NewHTTPMetrics(reg, "gateway", logger),

		latchWait: reg.Histogram("vexus_gateway_latch_wait_seconds",
			"Time session-scoped requests waited on the migration route latch.", nil),

		migrations: reg.Counter("vexus_gateway_migrations_total",
			"Sessions migrated between shards (export, replay import, delete)."),
		migrationSeconds: reg.Histogram("vexus_gateway_migration_seconds",
			"End-to-end session migration time.", telemetry.SlowBuckets),

		warmBytes: reg.Counter("vexus_cluster_warmjoin_bytes_total",
			"Engine snapshot bytes streamed to warm-joining shards."),
		warmSeconds: reg.Histogram("vexus_cluster_warmjoin_seconds",
			"Per-dataset warm-join snapshot transfer time.", telemetry.SlowBuckets),
	}
}

// handleHealthz is GET /api/v1/healthz on the gateway: pure liveness.
// Shard reachability is a readiness concern — a gateway with a dead
// shard should keep serving the shards it can reach, not get restarted.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is GET /api/v1/readyz on the gateway: ready means no
// member is marked down and every routable shard answers its own
// healthz. Down members are named first — gossip already knows they
// are gone, so the probe should say so without spending a dial timeout
// rediscovering it. The healthz polls run concurrently (the serial
// version made readyz latency the *sum* of shard round trips, which at
// N shards turned a liveness probe into the slowest endpoint on the
// gateway); the failure report stays deterministic by picking the
// first failing shard in sorted order.
func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if down := g.roster.Down(); len(down) > 0 {
		http.Error(w, "shard "+strings.Join(down, ", ")+" down (heartbeats stopped; drain or POST /api/v1/cluster/remove?shard=<name> to acknowledge)",
			http.StatusServiceUnavailable)
		return
	}
	shards := g.shardList()
	failures := make([]string, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			res, err := sh.do(http.MethodGet, "/api/v1/healthz", nil, nil)
			if err != nil {
				failures[i] = "shard " + sh.name + " unreachable: " + err.Error()
				return
			}
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				failures[i] = "shard " + sh.name + " not healthy: status " + strconv.Itoa(res.StatusCode)
			}
		}(i, sh)
	}
	wg.Wait()
	for _, f := range failures {
		if f != "" {
			http.Error(w, f, http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ready\n"))
}

// metricsRollup sums every reachable shard's flattened metric snapshot
// (GET /internal/cluster/metrics) into one series→value map — the
// cluster-wide totals GET /api/v1/cluster reports. Histogram bucket
// series are dropped: summed buckets are still valid counts, but the
// rollup is a dashboard summary, and _sum/_count carry the aggregate
// story without the le-cardinality noise. Unreachable shards (or
// shards without the shard API) contribute nothing, matching the
// degrade-don't-502 stance of the other ops aggregations.
func (g *Gateway) metricsRollup() map[string]float64 {
	var out map[string]float64
	for _, sh := range g.shardList() {
		var snap map[string]float64
		if err := sh.getJSON("/internal/cluster/metrics", nil, &snap); err != nil {
			continue
		}
		for series, v := range snap {
			if strings.Contains(series, "_bucket{") {
				continue
			}
			if out == nil {
				out = make(map[string]float64, len(snap))
			}
			out[series] += v
		}
	}
	return out
}
