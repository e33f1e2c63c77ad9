package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vexus/internal/action"
	"vexus/internal/greedy"
	"vexus/internal/serve"
)

// ---------------------------------------------------------------------------
// Fixture plumbing: in-process shards, each building the fixture spec
// through its own catalog, as shard processes do. One spec gives
// bit-identical engines at any worker count: the "bit-identical engine
// on every shard" deployment contract.

// fixtureSpec is the dataset every test shard serves as "default".
var fixtureSpec = serve.DatasetSpec{Dataset: "dbauthors", N: 300, Seed: 7, MinSup: 0.03}

// fixtureWorkers is the pipeline worker count of shards outside the
// worker-equivalence suites.
const fixtureWorkers = 2

// detGreedy is the deterministic optimizer config — the migration
// fidelity precondition (replay re-runs the optimizer).
func detGreedy() greedy.Config {
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 0
	return cfg
}

// specCatalog assembles one in-process shard serving spec as its
// "default" dataset. Its engine is not built yet.
func specCatalog(t testing.TB, spec serve.DatasetSpec, workers int, scfg serve.Config) (*serve.Catalog, *serve.Server) {
	t.Helper()
	scfg.ShardAPI = true
	cat, err := serve.NewCatalog("", map[string]serve.DatasetSpec{"default": spec}, "", detGreedy(), scfg, workers, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.NewCatalogServer(cat)
	t.Cleanup(s.Close)
	return cat, s
}

// specShard is specCatalog with the engine built before it returns,
// as vexus-server builds it before listening.
func specShard(t testing.TB, spec serve.DatasetSpec, workers int, scfg serve.Config) *serve.Server {
	t.Helper()
	cat, s := specCatalog(t, spec, workers, scfg)
	if err := cat.BuildDefault(); err != nil {
		t.Fatal(err)
	}
	return s
}

// shardServer builds one in-process shard over the fixture spec.
func shardServer(t testing.TB) *serve.Server {
	t.Helper()
	return specShard(t, fixtureSpec, fixtureWorkers, serve.DefaultConfig())
}

// warmJoiner builds a warm-only fixture shard, as vexus-server -shard
// -warm does: it serves nothing until a warm join streams its engine.
func warmJoiner(t testing.TB) *serve.Server {
	t.Helper()
	cat, s := specCatalog(t, fixtureSpec, fixtureWorkers, serve.DefaultConfig())
	cat.WarmOnly()
	return s
}

// testCluster stands up n fixture shards named s0..s(n-1) behind a
// gateway served over httptest.
func testCluster(t testing.TB, n int) (*Gateway, *httptest.Server) {
	t.Helper()
	return workersCluster(t, fixtureWorkers, n)
}

// workersCluster is testCluster with the shards' engines built at the
// given worker count.
func workersCluster(t testing.TB, workers, n int) (*Gateway, *httptest.Server) {
	t.Helper()
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = LocalShard(fmt.Sprintf("s%d", i), specShard(t, fixtureSpec, workers, serve.DefaultConfig()).Routes())
	}
	gw, err := NewGatewayConfig(GatewayConfig{}, shards...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Routes())
	t.Cleanup(ts.Close)
	return gw, ts
}

// stateLite is the slice of the state DTO the tests drive trails from.
type stateLite struct {
	Session string `json:"session"`
	Shown   []struct {
		ID int `json:"id"`
	} `json:"shown"`
	Focal   int `json:"focal"`
	History []struct {
		Step int `json:"step"`
	} `json:"history"`
}

func createV1(t testing.TB, base string) (stateLite, string) {
	t.Helper()
	res, err := http.Post(base+"/api/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(res.Body)
		t.Fatalf("create: status %d: %s", res.StatusCode, body)
	}
	var st stateLite
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if loc := res.Header.Get("Location"); loc != "/api/v1/sessions/"+st.Session {
		t.Fatalf("Location %q for session %s", loc, st.Session)
	}
	return st, res.Header.Get("ETag")
}

// applyOne posts a one-action batch (?full=1) and returns the parsed
// state, the raw body, and the response ETag.
func applyOne(t testing.TB, base, sid string, a action.Action) (stateLite, string, string) {
	t.Helper()
	raw, err := json.Marshal([]action.Action{a})
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(base+"/api/v1/sessions/"+sid+"/actions?full=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("apply %v: status %d: %s", a, res.StatusCode, body)
	}
	var st stateLite
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st, string(body), res.Header.Get("ETag")
}

func getStateRaw(t testing.TB, base, sid string) (string, string, int) {
	t.Helper()
	res, err := http.Get(base + "/api/v1/sessions/" + sid + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	return string(body), res.Header.Get("ETag"), res.StatusCode
}

// normalize blanks the random session id out of a state body or ETag
// so runs with different sids compare byte-for-byte.
func normalize(s, sid string) string { return strings.ReplaceAll(s, sid, "X") }

// mutations extracts n from an `"<sid>.<n>"` validator.
func mutations(t testing.TB, etag, sid string) uint64 {
	t.Helper()
	want := `"` + sid + `.`
	if !strings.HasPrefix(etag, want) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("etag %q does not carry sid %q", etag, sid)
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(etag, want), `"`), 10, 64)
	if err != nil {
		t.Fatalf("etag %q: %v", etag, err)
	}
	return n
}

// ---------------------------------------------------------------------------
// Rendezvous hashing: determinism and minimal disruption.

func TestOwnerDeterministicAndMinimalDisruption(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	sids := make([]string, 500)
	for i := range sids {
		sids[i] = fmt.Sprintf("%032x", i*2654435761)
	}
	counts := map[string]int{}
	owners := map[string]string{}
	for _, sid := range sids {
		o := Owner(names, sid)
		if o2 := Owner([]string{"d", "c", "b", "a"}, sid); o2 != o {
			t.Fatalf("owner of %s depends on name order: %s vs %s", sid, o, o2)
		}
		owners[sid] = o
		counts[o]++
	}
	// Every shard should carry a meaningful share (loose bound: at
	// least half its fair share) — rendezvous is balanced in
	// expectation.
	for _, n := range names {
		if counts[n] < len(sids)/len(names)/2 {
			t.Fatalf("shard %s owns %d of %d sessions — hash badly skewed: %v", n, counts[n], len(sids), counts)
		}
	}
	// Removing "b" moves exactly b's sessions, nobody else's.
	without := []string{"a", "c", "d"}
	for _, sid := range sids {
		o := Owner(without, sid)
		if owners[sid] != "b" && o != owners[sid] {
			t.Fatalf("removing b moved %s from %s to %s", sid, owners[sid], o)
		}
		if owners[sid] == "b" && o == "b" {
			t.Fatal("removed shard still owns sessions")
		}
	}
	if Owner(nil, "x") != "" {
		t.Fatal("owner of empty shard set should be empty")
	}
}

// ---------------------------------------------------------------------------
// Gateway basics: hashed placement, sticky routing, aggregation.

func TestGatewayPlacementAndStickyRouting(t *testing.T) {
	gw, ts := testCluster(t, 3)

	const n = 9
	sids := make([]string, n)
	for i := range sids {
		st, etag := createV1(t, ts.URL)
		sids[i] = st.Session
		if len(st.Shown) == 0 {
			t.Fatalf("create %d: empty initial display", i)
		}
		if got := mutations(t, etag, st.Session); got != 1 {
			t.Fatalf("fresh session mutations = %d, want 1", got)
		}
		// Placement agrees with the hash: the gateway's route and the
		// rendezvous owner are the same shard.
		gw.mu.RLock()
		rt := gw.routes[st.Session]
		gw.mu.RUnlock()
		if rt == nil {
			t.Fatalf("create %d: no route recorded", i)
		}
		if want := Owner(gw.Shards(), st.Session); rt.shard.name != want {
			t.Fatalf("session %s placed on %s, hash owner %s", st.Session, rt.shard.name, want)
		}
	}

	// Sticky: every sid resolves through the gateway, and a mutation
	// round-trips with a coherent validator.
	for _, sid := range sids {
		body, _, status := getStateRaw(t, ts.URL, sid)
		if status != http.StatusOK {
			t.Fatalf("state %s: status %d: %s", sid, status, body)
		}
	}
	st, _, _ := getStateRawParsed(t, ts.URL, sids[0])
	_, _, etag := applyOne(t, ts.URL, sids[0], action.Action{Op: action.Explore, Group: st.Shown[0].ID})
	if got := mutations(t, etag, sids[0]); got != 2 {
		t.Fatalf("mutations after explore = %d, want 2", got)
	}

	// Occupancy aggregates without double counting: totals equal the
	// number of live sessions, and the per-shard counts sum to it.
	var occ struct {
		Sessions   int            `json:"sessions"`
		PerDataset map[string]int `json:"perDataset"`
		PerShard   map[string]int `json:"perShard"`
	}
	getJSON(t, ts.URL+"/api/sessions", &occ)
	if occ.Sessions != n {
		t.Fatalf("aggregate sessions = %d, want %d", occ.Sessions, n)
	}
	if occ.PerDataset["default"] != n {
		t.Fatalf("perDataset = %v, want default:%d", occ.PerDataset, n)
	}
	sum := 0
	for _, c := range occ.PerShard {
		sum += c
	}
	if sum != n || len(occ.PerShard) != 3 {
		t.Fatalf("perShard = %v, want 3 shards summing to %d", occ.PerShard, n)
	}

	// The dataset listing merges to one row per dataset.
	var ds struct {
		Default  string `json:"default"`
		Datasets []struct {
			Name     string `json:"name"`
			Resident bool   `json:"resident"`
			Sessions int    `json:"sessions"`
		} `json:"datasets"`
	}
	getJSON(t, ts.URL+"/api/datasets", &ds)
	if len(ds.Datasets) != 1 || ds.Datasets[0].Name != "default" {
		t.Fatalf("merged datasets = %+v, want one default row", ds.Datasets)
	}
	if !ds.Datasets[0].Resident || ds.Datasets[0].Sessions != n {
		t.Fatalf("default row = %+v, want resident with %d sessions", ds.Datasets[0], n)
	}

	// Cluster status: every shard healthy, session total matches.
	var cs Status
	getJSON(t, ts.URL+"/api/v1/cluster", &cs)
	if len(cs.Shards) != 3 || cs.Sessions != n {
		t.Fatalf("cluster status %+v", cs)
	}
	for _, row := range cs.Shards {
		if !row.Healthy {
			t.Fatalf("shard %s unhealthy: %s", row.Name, row.Error)
		}
	}
}

func getStateRawParsed(t testing.TB, base, sid string) (stateLite, string, string) {
	t.Helper()
	body, etag, status := getStateRaw(t, base, sid)
	if status != http.StatusOK {
		t.Fatalf("state %s: status %d", sid, status)
	}
	var st stateLite
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st, body, etag
}

func getJSON(t testing.TB, url string, v any) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(res.Body)
		t.Fatalf("GET %s: status %d: %s", url, res.StatusCode, body)
	}
	if err := json.NewDecoder(res.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Lifecycle through the gateway: deletion, unknown sessions, 404 GC.

func TestGatewayDeleteAndUnknownSession(t *testing.T) {
	gw, ts := testCluster(t, 2)

	st, _ := createV1(t, ts.URL)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/"+st.Session, nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", res.StatusCode)
	}
	gw.mu.RLock()
	_, still := gw.routes[st.Session]
	gw.mu.RUnlock()
	if still {
		t.Fatal("route survived session deletion")
	}
	if _, _, status := getStateRaw(t, ts.URL, st.Session); status != http.StatusNotFound {
		t.Fatalf("state after delete: status %d, want 404", status)
	}
	if _, _, status := getStateRaw(t, ts.URL, "deadbeef"); status != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", status)
	}
}

// TestGatewayRemovedLegacyAddresses: the gateway no longer mirrors the
// legacy lifecycle and read addresses; for a live session each answers
// 404 or 405, never a proxied 200.
func TestGatewayRemovedLegacyAddresses(t *testing.T) {
	_, ts := testCluster(t, 2)
	st, _ := createV1(t, ts.URL)
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/api/state?sid=" + st.Session},
		{http.MethodGet, "/api/v1/state?sid=" + st.Session},
		{http.MethodPost, "/api/session"},
		{http.MethodDelete, "/api/session?sid=" + st.Session},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound && res.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 404 or 405", c.method, c.path, res.StatusCode)
		}
	}
	if _, _, status := getStateRaw(t, ts.URL, st.Session); status != http.StatusOK {
		t.Fatalf("session lost after legacy probes: status %d", status)
	}
}

// ---------------------------------------------------------------------------
// Drain: replay-based migration moves every session, seamlessly.

func TestGatewayDrainMigratesSessions(t *testing.T) {
	gw, ts := testCluster(t, 3)

	// A handful of sessions, each advanced a little so there is real
	// trail to replay.
	type sess struct {
		sid   string
		state string // normalized full state before the drain
		etag  string
	}
	var sessions []sess
	for i := 0; i < 6; i++ {
		st, _ := createV1(t, ts.URL)
		_, body, etag := applyOne(t, ts.URL, st.Session, action.Action{Op: action.Explore, Group: st.Shown[i%len(st.Shown)].ID})
		sessions = append(sessions, sess{st.Session, normalize(body, st.Session), normalize(etag, st.Session)})
	}

	// Drain whichever shard carries the first session.
	gw.mu.RLock()
	victim := gw.routes[sessions[0].sid].shard.name
	gw.mu.RUnlock()
	var before int
	for _, row := range gw.Status().Shards {
		if row.Name == victim {
			before = row.Sessions
		}
	}
	res, err := http.Post(ts.URL+"/api/v1/cluster/drain?shard="+victim, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Shard  string   `json:"shard"`
		Moved  int      `json:"moved"`
		Shards []string `json:"shards"`
	}
	if err := json.NewDecoder(res.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", res.StatusCode)
	}
	if dr.Moved != before {
		t.Fatalf("drain moved %d sessions, shard had %d", dr.Moved, before)
	}
	if len(dr.Shards) != 2 {
		t.Fatalf("shards after drain: %v", dr.Shards)
	}
	for _, n := range dr.Shards {
		if n == victim {
			t.Fatalf("drained shard %s still routed", victim)
		}
	}

	// Every session — migrated or not — serves byte-identical state
	// under the same validator.
	for _, s := range sessions {
		body, etag, status := getStateRaw(t, ts.URL, s.sid)
		if status != http.StatusOK {
			t.Fatalf("state %s after drain: status %d", s.sid, status)
		}
		if normalize(body, s.sid) != s.state {
			t.Fatalf("state of %s changed across drain\nbefore: %s\nafter:  %s", s.sid, s.state, normalize(body, s.sid))
		}
		if normalize(etag, s.sid) != s.etag {
			t.Fatalf("etag of %s changed across drain: %s vs %s", s.sid, s.etag, normalize(etag, s.sid))
		}
	}

	// Sessions keep working after migration, counter continuous.
	st, _, _ := getStateRawParsed(t, ts.URL, sessions[0].sid)
	_, _, etag := applyOne(t, ts.URL, sessions[0].sid, action.Action{Op: action.Explore, Group: st.Shown[0].ID})
	if got := mutations(t, etag, sessions[0].sid); got != 3 {
		t.Fatalf("mutations after post-drain explore = %d, want 3", got)
	}

	// Draining the rest down to one shard works; draining the last
	// must refuse.
	for len(gw.Shards()) > 1 {
		if _, err := gw.Drain(gw.Shards()[0]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := gw.Drain(gw.Shards()[0]); err == nil {
		t.Fatal("draining the last shard should fail")
	}
	for _, s := range sessions {
		if _, _, status := getStateRaw(t, ts.URL, s.sid); status != http.StatusOK {
			t.Fatalf("session %s lost after full drain-down: status %d", s.sid, status)
		}
	}
}

// ---------------------------------------------------------------------------
// Join: the newcomer steals exactly the sessions it hash-owns.

func TestGatewayJoinRebalances(t *testing.T) {
	gw, ts := testCluster(t, 1)

	type sess struct{ sid, state string }
	var sessions []sess
	for i := 0; i < 8; i++ {
		st, _ := createV1(t, ts.URL)
		_, body, _ := applyOne(t, ts.URL, st.Session, action.Action{Op: action.Explore, Group: st.Shown[0].ID})
		sessions = append(sessions, sess{st.Session, normalize(body, st.Session)})
	}

	newShard := LocalShard("s9", shardServer(t).Routes())
	moved, err := gw.Join(newShard)
	if err != nil {
		t.Fatal(err)
	}
	wantMoved := 0
	names := gw.Shards()
	for _, s := range sessions {
		if Owner(names, s.sid) == "s9" {
			wantMoved++
		}
	}
	if moved != wantMoved {
		t.Fatalf("join moved %d sessions, hash reassigns %d", moved, wantMoved)
	}
	if wantMoved == 0 {
		t.Fatal("fixture too small: no session reassigned to the joining shard")
	}
	for _, s := range sessions {
		body, _, status := getStateRaw(t, ts.URL, s.sid)
		if status != http.StatusOK {
			t.Fatalf("state %s after join: status %d", s.sid, status)
		}
		if normalize(body, s.sid) != s.state {
			t.Fatalf("state of %s changed across join", s.sid)
		}
	}
	if _, err := gw.Join(newShard); err == nil {
		t.Fatal("joining a duplicate shard name should fail")
	}
}

// ---------------------------------------------------------------------------
// Remove: the recovery path for a dead member Drain cannot talk to.

func TestGatewayRemoveDeadShard(t *testing.T) {
	// A warm join of an unreachable member refuses up front — the
	// snapshot stream cannot complete, so the newcomer is never
	// admitted and the epoch never moves.
	gwLive, _ := testCluster(t, 1)
	epochBefore := gwLive.Epoch()
	if _, err := gwLive.Join(RemoteShard("dead", "127.0.0.1:1")); err == nil {
		t.Fatal("warm join of an unreachable shard should fail")
	}
	if len(gwLive.Shards()) != 1 {
		t.Fatalf("failed join admitted the shard anyway: %v", gwLive.Shards())
	}
	if gwLive.Epoch() != epochBefore {
		t.Fatalf("failed join moved the epoch: %d -> %d", epochBefore, gwLive.Epoch())
	}

	// A member that dies *after* admission is modeled by seeding it
	// statically (static members are trusted without a warm stream).
	s0 := LocalShard("s0", shardServer(t).Routes())
	dead := RemoteShard("dead", "127.0.0.1:1")
	gw, err := NewGatewayConfig(GatewayConfig{}, s0, dead)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Routes())
	t.Cleanup(ts.Close)

	// Placement is sid-random and the dead member wins ~half, failing
	// those creates with 502; keep trying until one lands on s0.
	tryCreate := func() string {
		res, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusCreated {
			io.Copy(io.Discard, res.Body)
			return ""
		}
		var st stateLite
		if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Session
	}
	sid := ""
	for i := 0; i < 64 && sid == ""; i++ {
		sid = tryCreate()
	}
	if sid == "" {
		t.Fatal("no create landed on the live shard")
	}
	st := stateLite{Session: sid}
	// Drain cannot remove it — it must list the shard's sessions.
	if _, err := gw.Drain("dead"); err == nil {
		t.Fatal("drain of an unreachable shard should fail")
	}
	if len(gw.Shards()) != 2 {
		t.Fatal("failed drain removed the shard anyway")
	}
	// Remove can.
	if _, err := gw.Remove("dead"); err != nil {
		t.Fatal(err)
	}
	if len(gw.Shards()) != 1 {
		t.Fatalf("shards after remove: %v", gw.Shards())
	}
	// The cluster serves again: surviving sessions respond, creates
	// succeed (no placement can hash to the dead member anymore).
	if _, _, status := getStateRaw(t, ts.URL, st.Session); status != http.StatusOK {
		t.Fatalf("surviving session after remove: status %d", status)
	}
	for i := 0; i < 4; i++ {
		if st, _ := createV1(t, ts.URL); st.Session == "" {
			t.Fatal("create failed after removing the dead shard")
		}
	}
	// Removing the last shard refuses, like drain.
	if _, err := gw.Remove(gw.Shards()[0]); err == nil {
		t.Fatal("removing the last shard should fail")
	}
}

// ---------------------------------------------------------------------------
// Route GC: entries for sessions that died shard-side (TTL, LRU,
// out-of-band delete) are reclaimed by the sweeper.

func TestGatewaySweepReclaimsDeadRoutes(t *testing.T) {
	gw, ts := testCluster(t, 2)

	dead, _ := createV1(t, ts.URL)
	alive, _ := createV1(t, ts.URL)

	// Kill the first session behind the gateway's back, as a TTL
	// sweep on the shard would.
	gw.mu.RLock()
	sh := gw.routes[dead.Session].shard
	gw.mu.RUnlock()
	res, err := sh.send(context.Background(), sh.client, http.MethodDelete, "/api/v1/sessions/"+dead.Session, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()

	if dropped := gw.sweepRoutes(); dropped != 1 {
		t.Fatalf("sweep dropped %d routes, want 1", dropped)
	}
	gw.mu.RLock()
	_, deadThere := gw.routes[dead.Session]
	_, aliveThere := gw.routes[alive.Session]
	gw.mu.RUnlock()
	if deadThere {
		t.Fatal("dead session's route survived the sweep")
	}
	if !aliveThere {
		t.Fatal("live session's route was swept")
	}
	if _, _, status := getStateRaw(t, ts.URL, alive.Session); status != http.StatusOK {
		t.Fatalf("live session broken after sweep: %d", status)
	}
}

// ---------------------------------------------------------------------------
// Concurrency: live traffic rides through a drain untouched. Run with
// -race (CI does).

func TestGatewayDrainUnderTraffic(t *testing.T) {
	gw, ts := testCluster(t, 2)

	st, _ := createV1(t, ts.URL)
	sid := st.Session
	gw.mu.RLock()
	victim := gw.routes[sid].shard.name
	gw.mu.RUnlock()

	const hammers = 4
	const perHammer = 5
	errc := make(chan error, hammers)
	var wg sync.WaitGroup
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perHammer; i++ {
				raw, _ := json.Marshal([]action.Action{{Op: action.Explore, Group: st.Shown[0].ID}})
				res, err := http.Post(ts.URL+"/api/v1/sessions/"+sid+"/actions", "application/json", bytes.NewReader(raw))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("explore during drain: status %d", res.StatusCode)
					return
				}
			}
		}()
	}
	if _, err := gw.Drain(victim); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// Counter reflects exactly the successful mutations: create (1) +
	// hammers*perHammer explores, none lost to the migration.
	_, etag, status := getStateRaw(t, ts.URL, sid)
	if status != http.StatusOK {
		t.Fatalf("state after drain under traffic: %d", status)
	}
	if got, want := mutations(t, etag, sid), uint64(1+hammers*perHammer); got != want {
		t.Fatalf("mutations = %d, want %d (no action lost or duplicated)", got, want)
	}
}
