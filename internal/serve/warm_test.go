package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"vexus/internal/membership"
)

// warmSpec is the donor/joiner dataset of the warm-join tests: both
// sides serve the same spec, so the joiner's locally computed
// fingerprint chain matches what the donor streams.
func warmSpec(seed uint64) DatasetSpec {
	return DatasetSpec{Dataset: "dbauthors", N: 250, Seed: seed, MinSup: 0.03}
}

// warmJoiner serves spec warm-only, as vexus-server -shard -warm does.
func warmJoiner(t *testing.T, spec DatasetSpec, scfg Config) *Server {
	t.Helper()
	cat, err := NewCatalog("", map[string]DatasetSpec{"default": spec}, "", fastGreedy(), scfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cat.WarmOnly()
	s := NewCatalogServer(cat)
	t.Cleanup(s.Close)
	return s
}

func shardConfig() Config {
	scfg := DefaultConfig()
	scfg.ShardAPI = true
	return scfg
}

// get/post against an in-process handler.
func roundTrip(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestWarmJoinRoundTrip(t *testing.T) {
	scfg := shardConfig()
	donorH := specServer(t, warmSpec(11), fastGreedy(), scfg).Routes()
	joinerH := warmJoiner(t, warmSpec(11), scfg).Routes()

	// Before the snapshot arrives the joiner fails closed: readiness
	// and session creation both 503.
	if rec := roundTrip(joinerH, http.MethodGet, "/api/v1/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pending readyz = %d, want 503", rec.Code)
	}
	if rec := roundTrip(joinerH, http.MethodPost, "/api/v1/sessions", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pending create = %d, want 503", rec.Code)
	}

	snap := roundTrip(donorH, http.MethodGet, "/internal/cluster/snapshot", nil)
	if snap.Code != http.StatusOK {
		t.Fatalf("donor snapshot: %d: %s", snap.Code, snap.Body)
	}
	raw := snap.Body.Bytes()
	if len(raw) == 0 {
		t.Fatal("empty snapshot stream")
	}

	warm := roundTrip(joinerH, http.MethodPost, "/internal/cluster/warm", raw)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm install: %d: %s", warm.Code, warm.Body)
	}

	// Now the joiner serves: ready, and creates succeed.
	if rec := roundTrip(joinerH, http.MethodGet, "/api/v1/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("warmed readyz = %d: %s", rec.Code, rec.Body)
	}
	if rec := roundTrip(joinerH, http.MethodPost, "/api/v1/sessions", nil); rec.Code != http.StatusCreated {
		t.Fatalf("warmed create = %d: %s", rec.Code, rec.Body)
	}

	// Warming an already-resident shard is an idempotent no-op.
	again := roundTrip(joinerH, http.MethodPost, "/internal/cluster/warm", raw)
	if again.Code != http.StatusOK || !bytes.Contains(again.Body.Bytes(), []byte("alreadyResident")) {
		t.Fatalf("re-warm: %d: %s", again.Code, again.Body)
	}
}

func TestWarmJoinFailsClosed(t *testing.T) {
	scfg := shardConfig()
	donor := specServer(t, warmSpec(11), fastGreedy(), scfg)
	snap := roundTrip(donor.Routes(), http.MethodGet, "/internal/cluster/snapshot", nil)
	if snap.Code != http.StatusOK {
		t.Fatalf("donor snapshot: %d", snap.Code)
	}
	raw := snap.Body.Bytes()

	// A different dataset's stream — same shape, wrong fingerprint.
	other := specServer(t, warmSpec(99), fastGreedy(), scfg)
	otherSnap := roundTrip(other.Routes(), http.MethodGet, "/internal/cluster/snapshot", nil)

	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"truncated stream", raw[:len(raw)/2]},
		{"garbage", []byte("definitely not a snapshot")},
		{"wrong dataset", otherSnap.Body.Bytes()},
	} {
		h := warmJoiner(t, warmSpec(11), scfg).Routes()
		rec := roundTrip(h, http.MethodPost, "/internal/cluster/warm", tc.body)
		if rec.Code == http.StatusOK {
			t.Fatalf("%s: warm install accepted (%d)", tc.name, rec.Code)
		}
		// The entry is untouched: still pending, still failing closed.
		if rec := roundTrip(h, http.MethodGet, "/api/v1/readyz", nil); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: readyz after rejected warm = %d, want 503", tc.name, rec.Code)
		}
		if rec := roundTrip(h, http.MethodPost, "/api/v1/sessions", nil); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: create after rejected warm = %d, want 503", tc.name, rec.Code)
		}
	}
}

func TestInternalEndpointsRequireSecret(t *testing.T) {
	scfg := shardConfig()
	scfg.ClusterSecret = "hunter2"
	h := specServer(t, warmSpec(11), fastGreedy(), scfg).Routes()

	paths := []struct{ method, path string }{
		{http.MethodGet, "/internal/cluster/sessions"},
		{http.MethodGet, "/internal/cluster/metrics"},
		{http.MethodGet, "/internal/cluster/snapshot"},
		{http.MethodPost, "/internal/cluster/warm"},
	}
	for _, p := range paths {
		// Missing and wrong secrets are rejected before the handler runs.
		if rec := roundTrip(h, p.method, p.path, nil); rec.Code != http.StatusUnauthorized {
			t.Fatalf("%s %s without secret: %d, want 401", p.method, p.path, rec.Code)
		}
		req := httptest.NewRequest(p.method, p.path, nil)
		req.Header.Set(membership.SecretHeader, "wrong")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusUnauthorized {
			t.Fatalf("%s %s with wrong secret: %d, want 401", p.method, p.path, rec.Code)
		}
		// The right secret reaches the handler.
		req = httptest.NewRequest(p.method, p.path, nil)
		req.Header.Set(membership.SecretHeader, "hunter2")
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusUnauthorized {
			t.Fatalf("%s %s with right secret still 401", p.method, p.path)
		}
	}

	// The public surface stays open: no secret required.
	if rec := roundTrip(h, http.MethodPost, "/api/v1/sessions", nil); rec.Code != http.StatusCreated {
		t.Fatalf("public create behind secret config: %d", rec.Code)
	}
}

// TestReadAtMost pins the warm-join body bound: a stream of exactly
// the limit is read whole, and one byte more is refused as too large
// rather than handed on cut short, where it would read as corrupt.
func TestReadAtMost(t *testing.T) {
	for _, tc := range []struct {
		n       int
		tooLong bool
	}{{0, false}, {7, false}, {8, false}, {9, true}, {64, true}} {
		body := bytes.Repeat([]byte{'x'}, tc.n)
		raw, err := readAtMost(bytes.NewReader(body), 8)
		if tc.tooLong {
			if !errors.Is(err, errTooLarge) {
				t.Fatalf("%d bytes at limit 8: err %v, want errTooLarge", tc.n, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(raw, body) {
			t.Fatalf("%d bytes at limit 8: read %d bytes, err %v", tc.n, len(raw), err)
		}
	}
}
