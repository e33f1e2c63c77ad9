package cluster

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vexus/internal/membership"
	"vexus/internal/serve"
)

// ---------------------------------------------------------------------------
// Gateway observability: healthz/readyz, the gateway's own metrics,
// the cluster rollup, and — the cross-shard tracing contract — one
// migration carrying one trace id through both shards' span logs.

// syncBuf is a goroutine-safe log sink for the shard slog handlers.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// migrationTraces collects the trace= value of every migration span
// log line with the given span attr.
func migrationTraces(logText, span string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(logText, "\n") {
		if !strings.Contains(line, "msg=migration") || !strings.Contains(line, "span="+span) {
			continue
		}
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "trace="); ok {
				out[v] = true
			}
		}
	}
	return out
}

func TestClusterObservability(t *testing.T) {
	logs := []*syncBuf{{}, {}}
	mkShard := func(i int) *serve.Server {
		scfg := serve.DefaultConfig()
		// Debug level turns the migration span logs on — exactly what
		// the CI cluster smoke runs the shard processes with.
		scfg.Logger = slog.New(slog.NewTextHandler(logs[i], &slog.HandlerOptions{Level: slog.LevelDebug}))
		return specShard(t, fixtureSpec, fixtureWorkers, scfg)
	}
	gw, err := NewGatewayConfig(GatewayConfig{},
		LocalShard("s0", mkShard(0).Routes()),
		LocalShard("s1", mkShard(1).Routes()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Routes())
	t.Cleanup(ts.Close)

	for _, probe := range []struct{ path, want string }{
		{"/api/v1/healthz", "ok\n"},
		{"/api/v1/readyz", "ready\n"},
	} {
		res, err := http.Get(ts.URL + probe.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK || string(body) != probe.want {
			t.Fatalf("%s: status %d body %q", probe.path, res.StatusCode, body)
		}
	}

	// Create sessions until the draining shard owns at least one, so
	// the drain below is guaranteed to migrate something.
	created := 0
	for i := 0; i < 64; i++ {
		createV1(t, ts.URL)
		created++
		if sessionsOn(t, gw, "s0") > 0 {
			break
		}
	}
	if sessionsOn(t, gw, "s0") == 0 {
		t.Fatalf("no session landed on s0 after %d creates", created)
	}

	moved, err := gw.Drain("s0")
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("drain moved no sessions")
	}

	// The tracing contract: every export span the source shard logged
	// carries a trace id that reappears on the destination's import
	// span — one grep joins the two process logs.
	exports := migrationTraces(logs[0].String(), "export")
	imports := migrationTraces(logs[1].String(), "import")
	if len(exports) != moved {
		t.Fatalf("source logged %d export traces, want %d", len(exports), moved)
	}
	for trace := range exports {
		if len(trace) != 16 {
			t.Errorf("trace %q is not 16 hex chars", trace)
		}
		if !imports[trace] {
			t.Errorf("export trace %s missing from destination import spans", trace)
		}
	}

	// Gateway metrics: the migration instruments moved with the drain,
	// and the request middleware counted the probes above.
	snap := gw.met.reg.Snapshot()
	if got := snap["vexus_gateway_migrations_total"]; got != float64(moved) {
		t.Errorf("vexus_gateway_migrations_total = %v, want %d", got, moved)
	}
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	text := string(raw)
	for _, want := range []string{
		`vexus_gateway_requests_total{route="POST /api/v1/sessions",status="201"}`,
		"vexus_gateway_migration_seconds_count",
		"vexus_gateway_latch_wait_seconds_count",
		"vexus_gateway_shards 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("gateway scrape is missing %q", want)
		}
	}

	// Cluster rollup: GET /api/v1/cluster sums the surviving shard's
	// snapshot; bucket series are filtered, totals survive.
	var st Status
	getJSON(t, ts.URL+"/api/v1/cluster", &st)
	if st.Metrics == nil {
		t.Fatal("cluster status carries no metrics rollup")
	}
	if got := st.Metrics["vexus_sessions_live"]; got != float64(st.Sessions) {
		t.Errorf("rollup vexus_sessions_live = %v, want %d", got, st.Sessions)
	}
	for series := range st.Metrics {
		if strings.Contains(series, "_bucket{") {
			t.Errorf("rollup leaked bucket series %s", series)
		}
	}
}

// sessionsOn reports how many sessions the named shard holds.
func sessionsOn(t testing.TB, gw *Gateway, name string) int {
	t.Helper()
	for _, row := range gw.Status().Shards {
		if row.Name == name {
			return row.Sessions
		}
	}
	t.Fatalf("shard %s not in status", name)
	return 0
}

// TestReadyzNamesDeadShard: readiness degrades to 503 naming the
// unreachable member.
func TestReadyzNamesDeadShard(t *testing.T) {
	dead := RemoteShard("dead", "127.0.0.1:1")
	gw, err := NewGatewayConfig(GatewayConfig{}, LocalShard("s0", shardServer(t).Routes()), dead)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Routes())
	t.Cleanup(ts.Close)

	res, err := http.Get(ts.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead shard: status %d", res.StatusCode)
	}
	if !strings.Contains(string(body), "dead") {
		t.Fatalf("503 body %q does not name the dead shard", body)
	}
}

// TestShardsGaugeCountsRoutingSet: vexus_gateway_shards counts the
// routing set, so a down member is left out even though the gateway
// keeps its client for the recovery heartbeat.
func TestShardsGaugeCountsRoutingSet(t *testing.T) {
	_, ts := reloadedGateway(t, map[string]http.Handler{
		"s0": shardServer(t).Routes(),
		"s1": shardServer(t).Routes(),
	}, memberInfo("s0", "s0:1", membership.StateAlive), memberInfo("s1", "s1:1", membership.StateDown))

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(raw), "\nvexus_gateway_shards 1\n") {
		t.Fatalf("gateway scrape with one member down:\n%s", raw)
	}
}
