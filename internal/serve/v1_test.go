package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vexus/internal/action"
)

// postBatch sends an action batch to the v1 endpoint.
func postBatch(t testing.TB, ts *httptest.Server, sid, query string, acts []action.Action) (batchDTO, *http.Response) {
	t.Helper()
	raw, err := json.Marshal(acts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/api/v1/sessions/"+sid+"/actions"+query, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var body batchDTO
	if res.Header.Get("Content-Type") == "application/json" {
		if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
			t.Fatalf("batch response: %v", err)
		}
	} else {
		_, _ = io.Copy(io.Discard, res.Body)
	}
	return body, res
}

func createV1Session(t testing.TB, ts *httptest.Server) (stateDTO, string) {
	t.Helper()
	res, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("v1 session create: status %d, want 201", res.StatusCode)
	}
	var st stateDTO
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if loc := res.Header.Get("Location"); loc != "/api/v1/sessions/"+st.Session {
		t.Fatalf("Location %q for session %s", loc, st.Session)
	}
	return st, res.Header.Get("ETag")
}

// ---------------------------------------------------------------------------
// Smoke: the CI step runs exactly this test.

func TestV1SmokeBatch(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st, etag := createV1Session(t, ts)
	if etag == "" {
		t.Fatal("create returned no ETag")
	}

	acts := []action.Action{
		{Op: action.Explore, Group: st.Shown[0].ID},
		{Op: action.BookmarkGroup, Group: st.Shown[0].ID},
		{Op: action.Unlearn, Field: "gender", Value: "male"},
	}
	body, res := postBatch(t, ts, st.Session, "", acts)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", res.StatusCode)
	}
	if body.Applied != 3 || len(body.Results) != 3 {
		t.Fatalf("applied %d with %d results, want 3/3", body.Applied, len(body.Results))
	}
	// Diff shape: explore moved the focal, replaced shown groups and
	// returned optimizer metrics; mutation counters are consecutive.
	d0 := body.Results[0]
	if d0.Metrics == nil {
		t.Fatal("explore result has no metrics")
	}
	if !d0.Diff.FocalChanged || d0.Diff.Focal != st.Shown[0].ID {
		t.Fatalf("explore diff focal: %+v", d0.Diff)
	}
	if len(d0.Diff.ShownAdded) == 0 && len(d0.Diff.ShownRemoved) == 0 {
		t.Fatalf("explore diff reports no display change: %+v", d0.Diff)
	}
	if len(body.Results[1].Diff.MemoGroupsAdded) != 1 {
		t.Fatalf("bookmark diff: %+v", body.Results[1].Diff)
	}
	for i, r := range body.Results {
		if want := uint64(i + 2); r.Diff.Mutations != want { // create's Start was mutation 1
			t.Fatalf("result %d mutations %d, want %d", i, r.Diff.Mutations, want)
		}
	}
	if body.ETag == "" || body.ETag != res.Header.Get("ETag") {
		t.Fatalf("batch etag body %q vs header %q", body.ETag, res.Header.Get("ETag"))
	}

	// Unchanged state + the batch's validator → 304 with no body.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/sessions/"+st.Session+"/state", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", body.ETag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("state with current validator: status %d, want 304", resp.StatusCode)
	}
}

// ---------------------------------------------------------------------------
// Batch semantics.

func TestV1BatchErrorPosition(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st, _ := createV1Session(t, ts)

	acts := []action.Action{
		{Op: action.BookmarkGroup, Group: st.Shown[0].ID},
		{Op: action.Explore, Group: -7},
		{Op: action.BookmarkGroup, Group: st.Shown[1].ID},
	}
	body, res := postBatch(t, ts, st.Session, "", acts)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("failing batch: status %d, want 400", res.StatusCode)
	}
	if body.FailedIndex == nil || *body.FailedIndex != 1 {
		t.Fatalf("failedIndex %v, want 1", body.FailedIndex)
	}
	if body.Applied != 1 || len(body.Results) != 1 {
		t.Fatalf("applied %d/%d results, want the 1-action prefix", body.Applied, len(body.Results))
	}
	if body.Error == "" {
		t.Fatal("failing batch carries no error message")
	}
	// The prefix stays applied: the bookmark exists, the tail does not.
	got, _ := getState(t, ts, st.Session)
	if len(got.Memo.Groups) != 1 {
		t.Fatalf("memo after failed batch: %v", got.Memo.Groups)
	}
}

func TestV1BatchFullState(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st, _ := createV1Session(t, ts)
	var full stateDTO
	raw, err := json.Marshal([]action.Action{{Op: action.Explore, Group: st.Shown[0].ID}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/api/v1/sessions/"+st.Session+"/actions?full=1",
		"application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("full batch: status %d", res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	if full.Focal != st.Shown[0].ID || full.Session != st.Session {
		t.Fatalf("full state: focal %d session %q", full.Focal, full.Session)
	}
	if res.Header.Get("ETag") == "" {
		t.Fatal("full batch response has no ETag")
	}
}

func TestV1BatchRejects(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st, etag := createV1Session(t, ts)

	cases := []struct {
		name string
		body string
	}{
		{"unknown op", `[{"op":"teleport"}]`},
		{"unknown field", `[{"op":"explore","group":1,"bogus":true}]`},
		{"field on wrong op", `[{"op":"start","group":1}]`},
		{"not json", `go go go`},
		{"empty batch", `[]`},
		{"no actions key", `{"version":2}`},
	}
	for _, c := range cases {
		res, err := http.Post(ts.URL+"/api/v1/sessions/"+st.Session+"/actions",
			"application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, res.StatusCode)
		}
	}
	// A rejected batch mutates nothing: the validator still matches.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/sessions/"+st.Session+"/state", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("state changed by rejected batches: status %d", resp.StatusCode)
	}

	// Oversized batches are refused outright.
	big := make([]action.Action, maxBatchActions+1)
	for i := range big {
		big[i] = action.Action{Op: action.Start}
	}
	_, res := postBatch(t, ts, st.Session, "", big)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", res.StatusCode)
	}
	assertTooLarge(t, ts.URL+"/api/v1/sessions/"+st.Session+"/actions", maxActionBody)

	// Unknown session → 404, missing → 400 (empty sid collapses the
	// path, so the mux 404s it — either way it is a client error).
	res, err = http.Post(ts.URL+"/api/v1/sessions/deadbeef/actions", "application/json",
		strings.NewReader(`[{"op":"start"}]`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session batch: status %d, want 404", res.StatusCode)
	}
}

func TestV1SessionDelete(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st, _ := createV1Session(t, ts)
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
		t.Fatalf("v1 delete: status %d, want 204", res.StatusCode)
	}
	if _, res := getState(t, ts, st.Session); res.StatusCode != http.StatusNotFound {
		t.Fatalf("state after v1 delete: status %d, want 404", res.StatusCode)
	}
}

// ---------------------------------------------------------------------------
// Diff correctness at the HTTP layer: every batch diff pinned against
// a recompute from the full states around it.

func TestV1DiffsPinnedAgainstFullState(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	st, _ := createV1Session(t, ts)

	fetch := func() stateDTO {
		got, res := getState(t, ts, st.Session)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("state: %d", res.StatusCode)
		}
		return got
	}
	shownIDs := func(s stateDTO) []int {
		out := make([]int, len(s.Shown))
		for i, g := range s.Shown {
			out[i] = g.ID
		}
		return out
	}
	ctxLabels := func(s stateDTO) []string {
		out := make([]string, len(s.Context))
		for i, c := range s.Context {
			out[i] = c.Label
		}
		return out
	}
	asSet := func(xs []int) map[int]bool {
		m := map[int]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	asStrSet := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}

	cur := fetch()
	steps := []func(stateDTO) action.Action{
		func(s stateDTO) action.Action { return action.Action{Op: action.Explore, Group: s.Shown[0].ID} },
		func(s stateDTO) action.Action { return action.Action{Op: action.Focus, Group: s.Shown[1].ID} },
		func(s stateDTO) action.Action { return action.Action{Op: action.BookmarkGroup, Group: s.Shown[2].ID} },
		func(s stateDTO) action.Action { return action.Action{Op: action.Backtrack, Step: 0} },
	}
	for i, mk := range steps {
		a := mk(cur)
		before := cur
		body, res := postBatch(t, ts, st.Session, "", []action.Action{a})
		if res.StatusCode != http.StatusOK {
			t.Fatalf("step %d: status %d", i, res.StatusCode)
		}
		after := fetch()
		d := body.Results[0].Diff

		bs, as_ := asSet(shownIDs(before)), asSet(shownIDs(after))
		for _, g := range d.ShownAdded {
			if bs[g] || !as_[g] {
				t.Fatalf("step %d: shownAdded %d not a genuine addition", i, g)
			}
		}
		for _, g := range d.ShownRemoved {
			if !bs[g] || as_[g] {
				t.Fatalf("step %d: shownRemoved %d not a genuine removal", i, g)
			}
		}
		if wantAdd := len(as_) - intersection(bs, as_); len(d.ShownAdded) != wantAdd {
			t.Fatalf("step %d: %d shownAdded, recompute %d", i, len(d.ShownAdded), wantAdd)
		}
		if wantDel := len(bs) - intersection(bs, as_); len(d.ShownRemoved) != wantDel {
			t.Fatalf("step %d: %d shownRemoved, recompute %d", i, len(d.ShownRemoved), wantDel)
		}
		if d.Focal != after.Focal {
			t.Fatalf("step %d: diff focal %d, state %d", i, d.Focal, after.Focal)
		}
		if d.FocalChanged != (before.Focal != after.Focal) {
			t.Fatalf("step %d: focalChanged %v, states %d→%d", i, d.FocalChanged, before.Focal, after.Focal)
		}
		if d.HistorySteps != len(after.History) {
			t.Fatalf("step %d: diff history %d, state %d", i, d.HistorySteps, len(after.History))
		}
		bc, ac := asStrSet(ctxLabels(before)), asStrSet(ctxLabels(after))
		for _, l := range d.ContextAdded {
			if bc[l] || !ac[l] {
				t.Fatalf("step %d: contextAdded %q not a genuine addition", i, l)
			}
		}
		for _, l := range d.ContextRemoved {
			if !bc[l] || ac[l] {
				t.Fatalf("step %d: contextRemoved %q not a genuine removal", i, l)
			}
		}
		if (d.Focus != nil) != (after.Focus != nil) {
			t.Fatalf("step %d: diff focus %v, state focus %v", i, d.Focus, after.Focus)
		}
		cur = after
	}
}

func intersection(a, b map[int]bool) int {
	n := 0
	for x := range a {
		if b[x] {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// etagMatches: RFC 9110 §13.1.2 table.

func TestEtagMatches(t *testing.T) {
	cases := []struct {
		name   string
		header string
		etag   string
		want   bool
	}{
		{"empty header", "", `"a.1"`, false},
		{"star", "*", `"a.1"`, true},
		{"star with spaces", "  *  ", `"a.1"`, true},
		{"exact", `"a.1"`, `"a.1"`, true},
		{"mismatch", `"a.2"`, `"a.1"`, false},
		{"weak header vs strong", `W/"a.1"`, `"a.1"`, true},
		{"strong header vs weak current", `"a.1"`, `W/"a.1"`, true},
		{"weak both", `W/"a.1"`, `W/"a.1"`, true},
		{"list hit", `"x", "a.1", "y"`, `"a.1"`, true},
		{"list miss", `"x", "y"`, `"a.1"`, false},
		{"list with weak hit", `"x", W/"a.1"`, `"a.1"`, true},
		{"list spacing", `"x",W/"a.1"`, `"a.1"`, true},
		{"star inside list is not a wildcard", `"x", *`, `"a.1"`, false},
		{"empty member ignored", `, "a.1"`, `"a.1"`, true},
		{"unquoted garbage", `a.1`, `"a.1"`, false},
	}
	for _, c := range cases {
		if got := etagMatches(c.header, c.etag); got != c.want {
			t.Errorf("%s: etagMatches(%q, %q) = %v, want %v", c.name, c.header, c.etag, got, c.want)
		}
	}
}

// ---------------------------------------------------------------------------
// /api/sessions reports every catalog dataset, non-resident ones at 0.

func TestSessionsReportNonResidentDatasets(t *testing.T) {
	_, ts := catalogServer(t, writeSpecs(t), 0)
	// Touch only "authors": "books" never builds.
	if _, res := createIn(t, ts, "authors"); res.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", res.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/api/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var occ struct {
		Sessions   int            `json:"sessions"`
		PerDataset map[string]int `json:"perDataset"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&occ); err != nil {
		t.Fatal(err)
	}
	if occ.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", occ.Sessions)
	}
	if got, ok := occ.PerDataset["authors"]; !ok || got != 1 {
		t.Fatalf("authors count = %d (present %v), want 1", got, ok)
	}
	if got, ok := occ.PerDataset["books"]; !ok || got != 0 {
		t.Fatalf("non-resident books count = %d (present %v), want 0", got, ok)
	}
}

// ---------------------------------------------------------------------------
// v1 on catalog deployments: dataset scoping carries over.

func TestV1SessionCreateWithDataset(t *testing.T) {
	_, ts := catalogServer(t, writeSpecs(t), 0)
	res, err := http.Post(ts.URL+"/api/v1/sessions?dataset=books", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("v1 create with dataset: status %d", res.StatusCode)
	}
	var st stateDTO
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Dataset != "books" {
		t.Fatalf("dataset %q, want books", st.Dataset)
	}
	res2, err := http.Post(ts.URL+"/api/v1/sessions?dataset=nope", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res2.Body)
	res2.Body.Close()
	if res2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d, want 404", res2.StatusCode)
	}
}
