package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/greedy"
)

// ---------------------------------------------------------------------------
// Fixture: one small dataset spec. Servers build it through the
// catalog; testEngine builds the same inputs directly, for the tests
// that need an oracle, and is bit-identical to every server's engine.

// testSpec is the fixture dataset: 400 authors, seed 7, minsup 0.02.
var testSpec = DatasetSpec{Dataset: "dbauthors", N: 400, Seed: 7, MinSup: 0.02}

var (
	engOnce sync.Once
	engFix  *core.Engine
	engErr  error
)

func testEngine(t testing.TB) *core.Engine {
	t.Helper()
	engOnce.Do(func() {
		data, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: testSpec.N, Seed: testSpec.Seed})
		if err != nil {
			engErr = err
			return
		}
		cfg := core.DefaultPipelineConfig()
		cfg.Encode = datagen.DBAuthorsEncodeOptions()
		cfg.MinSupportFrac = testSpec.MinSup
		engFix, engErr = core.Build(data, cfg)
	})
	if engErr != nil {
		t.Fatal(engErr)
	}
	return engFix
}

// fastGreedy keeps per-request optimization time negligible in tests.
func fastGreedy() greedy.Config {
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 2 * time.Millisecond
	return cfg
}

// specServer serves spec as the "default" dataset of a one-spec
// catalog and builds it before returning, as vexus-server does before
// it listens.
func specServer(t testing.TB, spec DatasetSpec, gcfg greedy.Config, scfg Config) *Server {
	t.Helper()
	cat, err := NewCatalog("", map[string]DatasetSpec{"default": spec}, "", gcfg, scfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewCatalogServer(cat)
	t.Cleanup(s.Close)
	if err := cat.BuildDefault(); err != nil {
		t.Fatal(err)
	}
	return s
}

func testServer(t testing.TB, scfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := specServer(t, testSpec, fastGreedy(), scfg)
	ts := httptest.NewServer(s.Routes())
	t.Cleanup(ts.Close)
	return s, ts
}

// createIn sends POST /api/v1/sessions, scoped to dataset when it is
// non-empty, and decodes the JSON state on 201.
func createIn(t testing.TB, ts *httptest.Server, dataset string) (stateDTO, *http.Response) {
	t.Helper()
	st, res := createSessionErr(ts, dataset)
	if res == nil {
		t.Fatalf("session create in %q: request failed", dataset)
	}
	return st, res
}

func getState(t testing.TB, ts *httptest.Server, sid string) (stateDTO, *http.Response) {
	t.Helper()
	res, err := http.Get(ts.URL + "/api/v1/sessions/" + sid + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st stateDTO
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		_, _ = io.Copy(io.Discard, res.Body)
	}
	return st, res
}

// act applies actions through the v1 batch endpoint (?full=1) and
// returns the resulting full state — the test-side replacement for
// the removed legacy one-action endpoints.
func act(t testing.TB, ts *httptest.Server, sid string, acts ...action.Action) (stateDTO, *http.Response) {
	t.Helper()
	st, res := actErr(ts, sid, acts...)
	if res == nil {
		t.Fatalf("act %v: request failed", acts)
	}
	return st, res
}

// actErr is the non-fatal variant usable inside stress goroutines.
func actErr(ts *httptest.Server, sid string, acts ...action.Action) (stateDTO, *http.Response) {
	var st stateDTO
	raw, err := json.Marshal(acts)
	if err != nil {
		return st, nil
	}
	res, err := http.Post(ts.URL+"/api/v1/sessions/"+sid+"/actions?full=1",
		"application/json", bytes.NewReader(raw))
	if err != nil {
		return st, nil
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusOK {
		if json.NewDecoder(res.Body).Decode(&st) != nil {
			return st, nil
		}
	} else {
		_, _ = io.Copy(io.Discard, res.Body)
	}
	return st, res
}

func createSession(t testing.TB, ts *httptest.Server) stateDTO {
	t.Helper()
	st, res := createIn(t, ts, "")
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("session create: status %d", res.StatusCode)
	}
	if st.Session == "" {
		t.Fatal("session create returned empty id")
	}
	if len(st.Shown) == 0 {
		t.Fatal("session create returned empty initial display")
	}
	return st
}

// ---------------------------------------------------------------------------
// Round-trips.

func TestSessionCreateAndState(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	if st.Focal != -1 {
		t.Fatalf("fresh session focal = %d, want -1", st.Focal)
	}
	got, res := getState(t, ts, st.Session)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("state: status %d", res.StatusCode)
	}
	if got.Session != st.Session || len(got.Shown) != len(st.Shown) {
		t.Fatalf("state mismatch after create: %+v vs %+v", got.Session, st.Session)
	}
}

func TestExploreBacktrackRoundTrip(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	sid := st.Session

	target := st.Shown[0].ID
	after, res := act(t, ts, sid, action.Action{Op: action.Explore, Group: target})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("explore: status %d", res.StatusCode)
	}
	if after.Focal != target {
		t.Fatalf("explore focal = %d, want %d", after.Focal, target)
	}
	if len(after.History) != 2 {
		t.Fatalf("history after explore = %d steps, want 2", len(after.History))
	}
	if len(after.Context) == 0 {
		t.Fatal("explore left the feedback context empty")
	}

	back, res := act(t, ts, sid, action.Action{Op: action.Backtrack, Step: 0})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("backtrack: status %d", res.StatusCode)
	}
	if back.Focal != -1 || len(back.History) != 1 {
		t.Fatalf("backtrack state: focal %d history %d, want -1/1", back.Focal, len(back.History))
	}
	if len(back.Context) != 0 {
		t.Fatal("backtrack did not rewind the feedback vector")
	}
}

func TestBookmarkRoundTrip(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	sid := st.Session

	after, res := act(t, ts, sid, action.Action{Op: action.BookmarkGroup, Group: st.Shown[0].ID})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("bookmark group: status %d", res.StatusCode)
	}
	if len(after.Memo.Groups) != 1 {
		t.Fatalf("memo groups = %v, want 1 entry", after.Memo.Groups)
	}

	userID := testEngine(t).Data.Users[0].ID
	after, res = act(t, ts, sid, action.Action{Op: action.BookmarkUser, User: userID})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("bookmark user: status %d", res.StatusCode)
	}
	if len(after.Memo.Users) != 1 || after.Memo.Users[0] != userID {
		t.Fatalf("memo users = %v, want [%s]", after.Memo.Users, userID)
	}
}

func TestFocusAndSVGEndpoints(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	sid := st.Session

	after, res := act(t, ts, sid, action.Action{Op: action.Focus, Group: st.Shown[0].ID})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("focus: status %d", res.StatusCode)
	}
	if after.Focus == nil || len(after.Focus.Histograms) == 0 {
		t.Fatal("focus returned no histograms")
	}

	for _, name := range []string{"groupviz.svg", "focus.svg"} {
		svg, err := http.Get(ts.URL + "/api/v1/sessions/" + sid + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(svg.Body)
		svg.Body.Close()
		if svg.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", name, svg.StatusCode)
		}
		if ct := svg.Header.Get("Content-Type"); ct != "image/svg+xml" {
			t.Fatalf("%s content type %q", name, ct)
		}
		if !strings.HasPrefix(string(body), "<svg") {
			t.Fatalf("%s body does not start with <svg: %.40q", name, body)
		}
	}
}

// ---------------------------------------------------------------------------
// 4xx paths.

func TestBadSessionAndParams(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	sid := st.Session

	call := func(method, path string) *http.Response {
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res
	}
	cases := []struct {
		name string
		do   func() *http.Response
		want int
	}{
		{"svg unknown sid", func() *http.Response {
			return call(http.MethodGet, "/api/v1/sessions/deadbeef/groupviz.svg")
		}, http.StatusNotFound},
		{"focus svg without focus", func() *http.Response {
			return call(http.MethodGet, "/api/v1/sessions/"+sid+"/focus.svg")
		}, http.StatusNotFound},
		{"state unknown sid", func() *http.Response {
			_, res := getState(t, ts, "deadbeef")
			return res
		}, http.StatusNotFound},
		{"explore unknown sid", func() *http.Response {
			_, res := act(t, ts, "deadbeef", action.Action{Op: action.Explore, Group: 0})
			return res
		}, http.StatusNotFound},
		{"explore out-of-range gid", func() *http.Response {
			_, res := act(t, ts, sid, action.Action{Op: action.Explore, Group: 999999})
			return res
		}, http.StatusBadRequest},
		{"backtrack out-of-range step", func() *http.Response {
			_, res := act(t, ts, sid, action.Action{Op: action.Backtrack, Step: 42})
			return res
		}, http.StatusBadRequest},
		{"bookmark unknown user", func() *http.Response {
			_, res := act(t, ts, sid, action.Action{Op: action.BookmarkUser, User: "nobody"})
			return res
		}, http.StatusBadRequest},
		{"brush without focus", func() *http.Response {
			fresh := createSession(t, ts)
			_, res := act(t, ts, fresh.Session, action.Action{Op: action.Brush, Attr: "gender", Values: []string{"female"}})
			return res
		}, http.StatusBadRequest},
		// The legacy lifecycle and read addresses are gone, even for a
		// live session: GETs reach the page handler's 404, POST and
		// DELETE fall through to the GET-only page route (405). They
		// come last: a DELETE that still worked would end the session.
		{"removed GET /api/state", func() *http.Response {
			return call(http.MethodGet, "/api/state?sid="+sid)
		}, http.StatusNotFound},
		{"removed GET /api/v1/state", func() *http.Response {
			return call(http.MethodGet, "/api/v1/state?sid="+sid)
		}, http.StatusNotFound},
		{"removed GET /api/groupviz.svg", func() *http.Response {
			return call(http.MethodGet, "/api/groupviz.svg?sid="+sid)
		}, http.StatusNotFound},
		{"removed GET /api/focus.svg", func() *http.Response {
			return call(http.MethodGet, "/api/focus.svg?sid="+sid)
		}, http.StatusNotFound},
		{"removed POST /api/session", func() *http.Response {
			return call(http.MethodPost, "/api/session")
		}, http.StatusMethodNotAllowed},
		{"removed DELETE /api/session", func() *http.Response {
			return call(http.MethodDelete, "/api/session?sid="+sid)
		}, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		if res := c.do(); res.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, res.StatusCode, c.want)
		}
	}
}

func TestSessionDelete(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/"+st.Session, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", res.StatusCode)
	}
	if _, res := getState(t, ts, st.Session); res.StatusCode != http.StatusNotFound {
		t.Fatalf("state after delete: status %d, want 404", res.StatusCode)
	}
}

// ---------------------------------------------------------------------------
// Session table behavior: LRU capacity eviction, TTL sweeping and the
// engine-version pin, driven through a catalog.

// testClock is a hand-advanced Config.Clock; atomic, so a catalog's
// sweeper goroutine may read it while a test advances it.
type testClock struct{ ns atomic.Int64 }

func newTestClock() *testClock {
	c := &testClock{}
	c.ns.Store(time.Unix(1_700_000_000, 0).UnixNano())
	return c
}

func (c *testClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// clockedCatalog serves specs in memory, "default" by default, with the
// given session TTL and per-dataset session cap, on a hand-advanced
// clock, and builds the default dataset before returning.
func clockedCatalog(t testing.TB, specs map[string]DatasetSpec, ttl time.Duration, maxSessions int) (*Catalog, *testClock) {
	t.Helper()
	clk := newTestClock()
	scfg := Config{SessionTTL: ttl, MaxSessions: maxSessions, Clock: clk.now}
	cat, err := NewCatalog("", specs, "default", fastGreedy(), scfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cat.Close)
	if err := cat.BuildDefault(); err != nil {
		t.Fatal(err)
	}
	return cat, clk
}

// mustCreate opens a session on dataset ("" = default) under sid ("" =
// minted) at the current engine version.
func mustCreate(t testing.TB, cat *Catalog, dataset, sid string) *clientSession {
	t.Helper()
	cs, err := cat.createSession(dataset, sid, 0)
	if err != nil {
		t.Fatalf("create %q in %q: %v", sid, dataset, err)
	}
	return cs
}

// TestSessionLRUEviction: at a dataset's capacity, a create first
// evicts that dataset's least-recently-used session, but only one idle
// for at least minEvictIdle; and the cap counts each dataset's
// sessions on its own.
func TestSessionLRUEviction(t *testing.T) {
	cat, clk := clockedCatalog(t, map[string]DatasetSpec{
		"default": testSpec,
		"spare":   {Dataset: "dbauthors", N: 200, Seed: 11, MinSup: 0.05},
	}, 0, 2)

	// The first session's sid is the smaller, so only the touch below
	// keeps it: at equal recency the tie-break would take it.
	first := mustCreate(t, cat, "", "a")
	second := mustCreate(t, cat, "", "b")
	if _, err := cat.createSession("", "", 0); !errors.Is(err, errServerFull) {
		t.Fatalf("create at capacity with no session idle %v: err %v, want errServerFull", minEvictIdle, err)
	}
	// Another dataset's sessions neither count against this cap nor
	// serve as its victims.
	mustCreate(t, cat, "spare", "")
	mustCreate(t, cat, "spare", "")

	clk.advance(time.Minute)
	// Touch the first so the second is the LRU when the third arrives.
	if _, ok := cat.findSession(first.id); !ok {
		t.Fatal("touch first failed")
	}
	third, err := cat.createSession("", "", 0)
	if err != nil {
		t.Fatalf("create at capacity with an idle LRU: %v", err)
	}
	if _, ok := cat.findSession(second.id); ok {
		t.Fatal("LRU session survived capacity eviction")
	}
	for _, cs := range []*clientSession{first, third} {
		if _, ok := cat.findSession(cs.id); !ok {
			t.Fatalf("session %s evicted wrongly", cs.id)
		}
	}
	if total, per := cat.sessionCount(); total != 4 || per["default"] != 2 || per["spare"] != 2 {
		t.Fatalf("occupancy %d %v, want 2 sessions on each of 2 datasets", total, per)
	}
}

// TestSessionCreateBurstDoesNotEvictActive: when a dataset is full
// of recently active sessions, a creation burst gets 503s instead of
// evicting live explorers.
func TestSessionCreateBurstDoesNotEvictActive(t *testing.T) {
	scfg := DefaultConfig()
	scfg.MaxSessions = 2
	_, ts := testServer(t, scfg)

	first := createSession(t, ts)
	second := createSession(t, ts)
	_, res := createIn(t, ts, "")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create over active capacity: status %d, want 503", res.StatusCode)
	}
	for _, sid := range []string{first.Session, second.Session} {
		if _, res := getState(t, ts, sid); res.StatusCode != http.StatusOK {
			t.Fatalf("active session %s lost to creation burst: status %d", sid, res.StatusCode)
		}
	}
}

// TestSessionLRUTieBreak: sessions that share one recency stamp (a
// coarse or virtual clock) are evicted smallest sid first, whatever
// order the table's map iteration visits them in.
func TestSessionLRUTieBreak(t *testing.T) {
	cat, clk := clockedCatalog(t, map[string]DatasetSpec{"default": testSpec}, 0, 3)
	for _, sid := range []string{"c", "a", "b"} {
		mustCreate(t, cat, "", sid)
	}
	clk.advance(time.Minute)
	for _, want := range []string{"a", "b", "c"} {
		mustCreate(t, cat, "", "new-"+want)
		if _, ok := cat.findSession(want); ok {
			t.Fatalf("session %q survived; the tie should have evicted it", want)
		}
	}
}

// TestUnlimitedSessions: max <= 0 means no cap (mirroring ttl <= 0 =
// never expire), not a one-session server.
func TestUnlimitedSessions(t *testing.T) {
	cat, _ := clockedCatalog(t, map[string]DatasetSpec{"default": testSpec}, 0, 0)
	for i := 0; i < 5; i++ {
		if _, err := cat.createSession("", "", 0); err != nil {
			t.Fatalf("create %d with unlimited sessions: %v", i, err)
		}
	}
	if total, _ := cat.sessionCount(); total != 5 {
		t.Fatalf("count = %d, want 5", total)
	}
}

func TestSessionTTLSweep(t *testing.T) {
	cat, clk := clockedCatalog(t, map[string]DatasetSpec{"default": testSpec}, 10*time.Minute, 100)

	a := mustCreate(t, cat, "", "")
	clk.advance(7 * time.Minute)
	b := mustCreate(t, cat, "", "")
	if n := cat.sweep(); n != 0 {
		t.Fatalf("sweep evicted %d sessions before TTL", n)
	}
	clk.advance(5 * time.Minute) // a idle 12m, b idle 5m
	if n := cat.sweep(); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	if _, ok := cat.findSession(a.id); ok {
		t.Fatal("idle session survived the sweep")
	}
	if _, ok := cat.findSession(b.id); !ok {
		t.Fatal("active session was swept")
	}
	if total, _ := cat.sessionCount(); total != 1 {
		t.Fatalf("count = %d, want 1", total)
	}
}

// TestSessionVersionPin: a create that names an engine version (the
// migration import) lands on exactly that generation while the dataset
// retains it — the current one, or one of the last engineHistoryCap an
// ingest superseded — and fails with errVersionGone once it has aged
// out.
func TestSessionVersionPin(t *testing.T) {
	cat, _ := clockedCatalog(t, map[string]DatasetSpec{"default": testSpec}, 0, 0)
	v1 := mustCreate(t, cat, "", "").eng
	ingest := func(i int) {
		t.Helper()
		b := core.IngestBatch{Actions: []dataset.NewAction{{User: "author00001", Item: "VLDB", Value: 1, Time: int64(2019 + i)}}}
		if _, err := cat.ingest("", b); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	ingest(0)
	if cs, err := cat.createSession("", "pinned", 1); err != nil || cs.eng != v1 {
		t.Fatalf("create pinned to version 1 after one ingest: err %v", err)
	}
	for i := 1; i <= engineHistoryCap; i++ {
		ingest(i)
	}
	cur := uint64(engineHistoryCap + 2)
	if got := mustCreate(t, cat, "", "").eng.Version(); got != cur {
		t.Fatalf("fresh session on version %d, want %d", got, cur)
	}
	for v := cur - engineHistoryCap; v <= cur; v++ {
		cs, err := cat.createSession("", fmt.Sprint("at", v), v)
		if err != nil || cs.eng.Version() != v {
			t.Fatalf("create pinned to retained version %d: err %v", v, err)
		}
	}
	if _, err := cat.createSession("", "gone", 1); !errors.Is(err, errVersionGone) {
		t.Fatalf("create pinned to aged-out version 1: err %v, want errVersionGone", err)
	}
	if _, ok := cat.findSession("pinned"); !ok {
		t.Fatal("a session pinned to an aged-out version must keep serving it")
	}
}

// ---------------------------------------------------------------------------
// Concurrency: disjoint sessions must be fully isolated under load.
// Run with -race (CI does).

func TestConcurrentSessionIsolation(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	const explorers = 8
	const steps = 6

	var wg sync.WaitGroup
	errs := make(chan error, explorers)
	for e := 0; e < explorers; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			st, res := createSessionErr(ts, "")
			if res == nil || res.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("explorer %d: session create failed", e)
				return
			}
			sid := st.Session
			// Each explorer bookmarks a distinct group, then walks its
			// own path; the bookmark must survive every step untouched
			// by the other explorers.
			myBookmark := st.Shown[e%len(st.Shown)].ID
			cur, res := actErr(ts, sid, action.Action{Op: action.BookmarkGroup, Group: myBookmark})
			if res == nil || res.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("explorer %d: bookmark failed", e)
				return
			}
			wantHistory := 1
			for i := 0; i < steps; i++ {
				if i == steps/2 {
					// Mid-walk backtrack to the start.
					cur, res = actErr(ts, sid, action.Action{Op: action.Backtrack, Step: 0})
					if res == nil || res.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("explorer %d: backtrack failed", e)
						return
					}
					wantHistory = 1
					continue
				}
				if len(cur.Shown) == 0 {
					errs <- fmt.Errorf("explorer %d: empty display mid-walk", e)
					return
				}
				g := cur.Shown[(e+i)%len(cur.Shown)].ID
				cur, res = actErr(ts, sid, action.Action{Op: action.Explore, Group: g})
				if res == nil || res.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("explorer %d: explore failed (status %v)", e, res)
					return
				}
				wantHistory++
				if cur.Session != sid {
					errs <- fmt.Errorf("explorer %d: state leaked session %s", e, cur.Session)
					return
				}
				if cur.Focal != g {
					errs <- fmt.Errorf("explorer %d: focal %d, want %d", e, cur.Focal, g)
					return
				}
				if len(cur.History) != wantHistory {
					errs <- fmt.Errorf("explorer %d: history %d, want %d", e, len(cur.History), wantHistory)
					return
				}
				if len(cur.Memo.Groups) != 1 {
					errs <- fmt.Errorf("explorer %d: memo cross-contaminated: %v", e, cur.Memo.Groups)
					return
				}
			}
		}(e)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// createSessionErr is createIn's non-fatal variant, used inside stress
// goroutines (testing.T is not goroutine-safe for Fatal); a nil
// response means the request itself failed.
func createSessionErr(ts *httptest.Server, dataset string) (stateDTO, *http.Response) {
	var st stateDTO
	res, err := http.PostForm(ts.URL+"/api/v1/sessions", url.Values{"dataset": {dataset}})
	if err != nil {
		return st, nil
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusCreated {
		if json.NewDecoder(res.Body).Decode(&st) != nil {
			return st, nil
		}
	} else {
		_, _ = io.Copy(io.Discard, res.Body)
	}
	return st, res
}

// TestConcurrentSameSessionSerializes: hammering ONE session from many
// goroutines must not corrupt it — the per-session mutex serializes,
// and the history grows by exactly the number of successful explores.
func TestConcurrentSameSessionSerializes(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st := createSession(t, ts)
	sid := st.Session
	g := st.Shown[0].ID

	const hammers = 16
	var wg sync.WaitGroup
	var ok int64
	var mu sync.Mutex
	for i := 0; i < hammers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, res := actErr(ts, sid, action.Action{Op: action.Explore, Group: g})
			if res != nil && res.StatusCode == http.StatusOK {
				mu.Lock()
				ok++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	final, res := getState(t, ts, sid)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("final state: status %d", res.StatusCode)
	}
	if int64(len(final.History)) != ok+1 {
		t.Fatalf("history %d steps after %d successful explores, want %d",
			len(final.History), ok, ok+1)
	}
}
