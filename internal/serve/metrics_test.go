package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"vexus/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Observability surface: liveness/readiness and the Prometheus
// exposition.

func TestHealthzReadyz(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())

	res, err := http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: status %d body %q", res.StatusCode, body)
	}

	res, err = http.Get(ts.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || string(body) != "ready\n" {
		t.Fatalf("readyz: status %d body %q", res.StatusCode, body)
	}
}

// TestMetricsExposition drives one of everything through the public
// API and asserts the scrape carries the request, action, session and
// residency series the dashboards (and the CI smoke) key on.
func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())

	st, _ := createV1Session(t, ts)
	sid := st.Session
	res0, err := http.Post(ts.URL+"/api/v1/sessions/"+sid+"/actions", "application/json",
		strings.NewReader(`[{"op":"explore","group":0}]`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res0.Body)
	res0.Body.Close()
	if res0.StatusCode != http.StatusOK {
		t.Fatalf("actions: status %d", res0.StatusCode)
	}
	if res, err := http.Get(ts.URL + "/api/v1/sessions/" + sid + "/state"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	text := string(raw)
	for _, want := range []string{
		`vexus_http_requests_total{route="POST /api/v1/sessions",status="201"} 1`,
		`vexus_http_requests_total{route="POST /api/v1/sessions/{sid}/actions",status="200"} 1`,
		`vexus_http_request_seconds_count{route="GET /api/v1/sessions/{sid}/state"} 1`,
		`vexus_action_apply_seconds_count{op="explore"} 1`,
		"vexus_sessions_created_total 1",
		"vexus_sessions_live 1",
		"vexus_engines_resident 1",
		"# TYPE vexus_http_request_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
	// The scrape itself must not count: a second scrape still reports
	// the same request totals.
	if strings.Contains(text, `route="GET /metrics"`) {
		t.Error("/metrics instrumented itself")
	}
}

// TestTracePropagation: a caller-supplied trace id is adopted and
// reflected; absent one, the middleware mints an id.
func TestTracePropagation(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/datasets", nil)
	req.Header.Set(telemetry.TraceHeader, "cafe0123cafe0123")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got := res.Header.Get(telemetry.TraceHeader); got != "cafe0123cafe0123" {
		t.Fatalf("trace not adopted: got %q", got)
	}

	res, err = http.Get(ts.URL + "/api/datasets")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got := res.Header.Get(telemetry.TraceHeader); len(got) != 16 {
		t.Fatalf("minted trace %q, want 16 hex chars", got)
	}
}
