package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/dataset"
)

// serveIngestBatch is the canonical test batch against the dbauthors
// fixture: two new authors plus a new action for an existing one.
func serveIngestBatch() core.IngestBatch {
	return core.IngestBatch{
		Users: []dataset.NewUser{
			{ID: "fresh1", Demo: map[string]string{
				"gender": "female", "seniority": "junior", "country": "fr", "topic": "databases",
			}, Numeric: map[string]float64{"pubrate": 3}},
			{ID: "fresh2", Demo: map[string]string{
				"gender": "male", "seniority": "senior", "country": "us", "topic": "data mining",
			}, Numeric: map[string]float64{"pubrate": 40}},
		},
		Actions: []dataset.NewAction{
			{User: "fresh1", Item: "SIGMOD", Value: 1, Time: 2018},
			{User: "fresh2", Item: "KDD", Value: 1, Time: 2018},
			{User: "author00001", Item: "VLDB", Value: 1, Time: 2018},
		},
	}
}

func postIngest(t testing.TB, ts *httptest.Server, name, query string, b core.IngestBatch) (IngestResult, *http.Response) {
	t.Helper()
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/api/v1/datasets/"+name+"/ingest"+query, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out IngestResult
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			t.Fatalf("ingest response: %v", err)
		}
	}
	return out, res
}

// datasetRow fetches one dataset's row from GET /api/datasets.
func datasetRow(t testing.TB, ts *httptest.Server, name string) DatasetStatus {
	t.Helper()
	res, err := http.Get(ts.URL + "/api/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var body struct {
		Default  string          `json:"default"`
		Datasets []DatasetStatus `json:"datasets"`
	}
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, row := range body.Datasets {
		if row.Name == name {
			return row
		}
	}
	t.Fatalf("dataset %q not in listing", name)
	panic("unreachable")
}

// TestIngestEndpoint walks the commit path over HTTP: version bump,
// the seq ladder (assign, idempotent replay, gap), validation errors,
// and the listing's engineVersion.
func TestIngestEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	if row := datasetRow(t, ts, "default"); row.Version != 1 {
		t.Fatalf("fresh engine version = %d, want 1", row.Version)
	}

	res, hres := postIngest(t, ts, "default", "", serveIngestBatch())
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", hres.StatusCode)
	}
	if res.Dataset != "default" || res.Seq != 1 || res.EngineVersion != 2 {
		t.Fatalf("ingest result %+v, want seq 1 → engine version 2", res)
	}
	if res.Users != 2 || res.Actions != 3 || res.Groups == 0 {
		t.Fatalf("ingest result %+v: wrong batch accounting", res)
	}
	row := datasetRow(t, ts, "default")
	if row.Version != 2 || row.Users != 402 {
		t.Fatalf("listing after ingest: version %d users %d, want 2 and 402", row.Version, row.Users)
	}
	mres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(mres.Body)
	mres.Body.Close()
	for _, want := range []string{"\nvexus_ingest_batches_total 1\n", "\n" + `vexus_ingest_rows_total{kind="users"} 2` + "\n"} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("scrape after one ingest is missing %q", strings.TrimSpace(want))
		}
	}

	// Idempotent replay: the committed seq acks without re-applying.
	rb := serveIngestBatch()
	rb.Seq = 1
	res, hres = postIngest(t, ts, "default", "", rb)
	if hres.StatusCode != http.StatusOK || !res.AlreadyApplied || res.EngineVersion != 2 {
		t.Fatalf("replay: status %d result %+v, want alreadyApplied at version 2", hres.StatusCode, res)
	}

	// A skipped seq is a conflict, not a silent reorder.
	gap := serveIngestBatch()
	gap.Seq = 7
	if _, hres = postIngest(t, ts, "default", "", gap); hres.StatusCode != http.StatusConflict {
		t.Fatalf("seq gap: status %d, want 409", hres.StatusCode)
	}

	if _, hres = postIngest(t, ts, "default", "", core.IngestBatch{}); hres.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", hres.StatusCode)
	}
	bad := core.IngestBatch{Users: []dataset.NewUser{
		{ID: "zz", Demo: map[string]string{"gender": "robot"}},
	}}
	if _, hres = postIngest(t, ts, "default", "", bad); hres.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-domain value: status %d, want 400", hres.StatusCode)
	}
	if _, hres = postIngest(t, ts, "nope", "", serveIngestBatch()); hres.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d, want 404", hres.StatusCode)
	}
	// A body past the bound is refused as too large, naming the bound,
	// not cut short and parsed as malformed JSON.
	assertTooLarge(t, ts.URL+"/api/v1/datasets/default/ingest", MaxIngestBody)
	if row := datasetRow(t, ts, "default"); row.Version != 2 {
		t.Fatalf("failed ingests advanced the version to %d", row.Version)
	}

	// Sessions created after the swap explore the new generation.
	st, _ := createV1Session(t, ts)
	if len(st.Shown) == 0 {
		t.Fatal("post-ingest session shows no groups")
	}
}

// TestIngestNoticeAndETagSeamless pins the targeted-invalidation
// contract end to end: only a session whose display intersects the
// change hears about an ingest, the notice frame carries no event id,
// and the session's diff ids / ETags continue unbroken across it.
func TestIngestNoticeAndETagSeamless(t *testing.T) {
	s, ts := testServer(t, Config{})
	b := serveIngestBatch()

	// Local oracle: find a group the batch provably touches.
	base := testEngine(t)
	ne, err := base.Ingest(b)
	if err != nil {
		t.Fatal(err)
	}
	gid := -1
	for i := 0; i < base.Space.Len(); i++ {
		if core.GroupTouched(base.Space.Group(i), ne.Space) {
			gid = i
			break
		}
	}
	if gid < 0 {
		t.Fatal("test batch touches no group")
	}

	st, _ := createV1Session(t, ts)
	stream := openStream(t, ts.URL+"/api/v1/sessions/"+st.Session+"/events", "")
	if ev := stream.next(t); ev.name != "resync" {
		t.Fatalf("first event %q, want resync", ev.name)
	}

	// Focus the session on the group the batch is known to touch.
	if _, ares := act(t, ts, st.Session, action.Action{Op: action.Explore, Group: gid}); ares.StatusCode != http.StatusOK {
		t.Fatalf("explore: status %d", ares.StatusCode)
	}
	if ev := stream.next(t); ev.name != "diff" || ev.id != "2" {
		t.Fatalf("explore event %q id %q, want diff id 2", ev.name, ev.id)
	}

	// Deterministic negative: a rebuild of the same data has an
	// identical space, so no group reads as touched and the notice
	// reaches nobody — targeted invalidation, not broadcast.
	s.cat.mu.Lock()
	reg := s.cat.entries["default"].reg
	s.cat.mu.Unlock()
	same, err := core.Build(base.Data, base.Config())
	if err != nil {
		t.Fatal(err)
	}
	if n := notifyTouched(reg, same, "default", 1); n != 0 {
		t.Fatalf("identical engine notified %d sessions, want 0", n)
	}

	// The real ingest: the focal group is touched, so exactly this
	// session is notified.
	res, hres := postIngest(t, ts, "default", "", b)
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", hres.StatusCode)
	}
	if res.Notified != 1 {
		t.Fatalf("ingest notified %d sessions, want exactly 1", res.Notified)
	}
	ev := stream.next(t)
	if ev.name != "notice" {
		t.Fatalf("post-ingest event %q, want notice", ev.name)
	}
	if ev.id != "" {
		t.Fatalf("notice carries id %q — it would advance resume cursors", ev.id)
	}
	var note struct {
		Dataset       string `json:"dataset"`
		EngineVersion uint64 `json:"engineVersion"`
		Seq           uint64 `json:"seq"`
		Reason        string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(ev.data), &note); err != nil {
		t.Fatalf("notice payload: %v", err)
	}
	if note.Dataset != "default" || note.EngineVersion != 2 || note.Seq != 1 || note.Reason == "" {
		t.Fatalf("notice payload %+v", note)
	}

	// Seamlessness: the session stays pinned to its engine and the next
	// mutation is simply id 3 — the notice moved nothing.
	_, ares := act(t, ts, st.Session, action.Action{Op: action.Explore, Group: gid})
	if ares.StatusCode != http.StatusOK {
		t.Fatalf("post-ingest explore: status %d", ares.StatusCode)
	}
	if got := etagMut(t, ares.Header.Get("ETag")); got != 3 {
		t.Fatalf("post-ingest ETag mutation %d, want 3", got)
	}
	if ev := stream.next(t); ev.name != "diff" || ev.id != "3" {
		t.Fatalf("post-ingest event %q id %q, want diff id 3", ev.name, ev.id)
	}
}

// TestIngestPreviewEndpoint: ?preview=1 dry-runs the batch through the
// streaming miner and commits nothing.
func TestIngestPreviewEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	raw, err := json.Marshal(serveIngestBatch())
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/api/v1/datasets/default/ingest?preview=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("preview status %d", res.StatusCode)
	}
	var out IngestPreviewResult
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.EngineVersion != 1 || out.Support <= 0 || out.Epsilon <= 0 {
		t.Fatalf("preview header %+v", out)
	}
	if len(out.Candidates) == 0 {
		t.Fatal("preview found no candidates at the engine's support level")
	}
	for _, c := range out.Candidates {
		if c.Label == "" || c.Count <= 0 {
			t.Fatalf("malformed candidate %+v", c)
		}
	}
	if row := datasetRow(t, ts, "default"); row.Version != 1 {
		t.Fatalf("preview committed: version %d", row.Version)
	}
}

// assertTooLarge posts a body one byte past limit (JSON whitespace,
// which a cut read would parse as truncated) and wants 413 naming the
// limit.
func assertTooLarge(t testing.TB, url string, limit int) {
	t.Helper()
	res, err := http.Post(url, "application/json", bytes.NewReader(bytes.Repeat([]byte(" "), limit+1)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), fmt.Sprint(limit)) {
		t.Fatalf("POST %s with %d bytes: status %d: %s, want 413 naming %d", url, limit+1, res.StatusCode, body, limit)
	}
}
