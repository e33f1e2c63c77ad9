package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/dataset"
	"vexus/internal/serve"
)

// clusterBatch is the fan-out test batch against the dbauthors fixture.
func clusterBatch() core.IngestBatch {
	return core.IngestBatch{
		Users: []dataset.NewUser{
			{ID: "joiner1", Demo: map[string]string{
				"gender": "female", "seniority": "junior", "country": "fr", "topic": "databases",
			}, Numeric: map[string]float64{"pubrate": 3}},
			{ID: "joiner2", Demo: map[string]string{
				"gender": "male", "seniority": "senior", "country": "us", "topic": "data mining",
			}, Numeric: map[string]float64{"pubrate": 40}},
		},
		Actions: []dataset.NewAction{
			{User: "joiner1", Item: "SIGMOD", Value: 1, Time: 2018},
			{User: "joiner2", Item: "KDD", Value: 1, Time: 2018},
			{User: "author00001", Item: "VLDB", Value: 1, Time: 2018},
		},
	}
}

func postIngestAt(t testing.TB, base, name, query string, b core.IngestBatch) (serve.IngestResult, *http.Response) {
	t.Helper()
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(base+"/api/v1/datasets/"+name+"/ingest"+query, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out serve.IngestResult
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			t.Fatalf("ingest response: %v", err)
		}
	}
	return out, res
}

// TestGatewayIngestConvergence pins the clustered half of the live-
// dataset contract: one POST through the gateway lands the batch on
// every shard at the same seq, all shards converge on the same engine
// version, the result matches a single-node ingest of the same batch,
// and sessions opened before the ingest keep exploring their pinned
// version.
func TestGatewayIngestConvergence(t *testing.T) {
	gw, ts := testCluster(t, 2)

	// A pre-ingest session: it must survive the swap untouched. Its
	// display holds groups the batch changes, so its stream, attached
	// through the gateway, hears of the ingest.
	st, _ := createV1(t, ts.URL)
	stream := openStream(t, ts.URL+"/api/v1/sessions/"+st.Session+"/events", "")
	if ev := stream.next(t); ev.name != "resync" {
		t.Fatalf("first event %q, want resync", ev.name)
	}
	// Fresh sessions all show the same display, so each is notified;
	// with one on every shard, the gateway's count is a cross-shard sum.
	pre := 1
	for ; pre < 64 && (sessionsOn(t, gw, "s0") == 0 || sessionsOn(t, gw, "s1") == 0); pre++ {
		createV1(t, ts.URL)
	}

	b := clusterBatch()
	res, hres := postIngestAt(t, ts.URL, "default", "", b)
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("gateway ingest status %d", hres.StatusCode)
	}
	if res.Seq != 1 || res.EngineVersion != 2 {
		t.Fatalf("gateway ingest result %+v, want seq 1 → version 2", res)
	}
	if res.Notified != pre {
		t.Fatalf("gateway ingest notified %d sessions, want all %d", res.Notified, pre)
	}
	ev := stream.next(t)
	if ev.name != "notice" || ev.id != "" {
		t.Fatalf("post-ingest event %q id %q, want an id-less notice", ev.name, ev.id)
	}
	var note struct {
		EngineVersion uint64 `json:"engineVersion"`
	}
	if err := json.Unmarshal([]byte(ev.data), &note); err != nil || note.EngineVersion != 2 {
		t.Fatalf("notice %s (err %v), want engineVersion 2", ev.data, err)
	}

	// Every shard reports the same new version.
	for _, sh := range gw.shardList() {
		var body datasetsDTO
		if err := sh.getJSON("/api/datasets", nil, &body); err != nil {
			t.Fatalf("shard %s: %v", sh.name, err)
		}
		if len(body.Datasets) != 1 || body.Datasets[0].Version != 2 {
			t.Fatalf("shard %s listing %+v, want engine version 2", sh.name, body.Datasets)
		}
		if body.Datasets[0].Users != 302 {
			t.Fatalf("shard %s has %d users, want 302", sh.name, body.Datasets[0].Users)
		}
	}
	// The merged listing agrees.
	var merged datasetsDTO
	getJSON(t, ts.URL+"/api/datasets", &merged)
	if len(merged.Datasets) != 1 || merged.Datasets[0].Version != 2 {
		t.Fatalf("merged listing %+v, want one dataset at version 2", merged.Datasets)
	}

	// Same batch at the same seq on a standalone node: identical verdict.
	single := httptest.NewServer(shardServer(t).Routes())
	defer single.Close()
	sb := clusterBatch()
	sb.Seq = 1
	sres, shres := postIngestAt(t, single.URL, "default", "", sb)
	if shres.StatusCode != http.StatusOK {
		t.Fatalf("single-node ingest status %d", shres.StatusCode)
	}
	if sres.EngineVersion != res.EngineVersion || sres.Groups != res.Groups ||
		sres.NewGroups != res.NewGroups || sres.ChangedGroups != res.ChangedGroups {
		t.Fatalf("cluster result %+v diverges from single-node %+v", res, sres)
	}

	// Idempotent retry: replaying the committed seq acks on every shard.
	rb := clusterBatch()
	rb.Seq = 1
	res, hres = postIngestAt(t, ts.URL, "default", "", rb)
	if hres.StatusCode != http.StatusOK || !res.AlreadyApplied || res.EngineVersion != 2 {
		t.Fatalf("replay: status %d result %+v, want alreadyApplied at version 2", hres.StatusCode, res)
	}

	// The sequencer's rejections relay verbatim.
	gap := clusterBatch()
	gap.Seq = 9
	if _, hres = postIngestAt(t, ts.URL, "default", "", gap); hres.StatusCode != http.StatusConflict {
		t.Fatalf("seq gap: status %d, want 409", hres.StatusCode)
	}
	if _, hres = postIngestAt(t, ts.URL, "default", "", core.IngestBatch{}); hres.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", hres.StatusCode)
	}
	if _, hres = postIngestAt(t, ts.URL, "nope", "", clusterBatch()); hres.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d, want 404", hres.StatusCode)
	}
	// An over-limit body is refused at the gateway as too large.
	big := bytes.Repeat([]byte(" "), serve.MaxIngestBody+1)
	bres, err := http.Post(ts.URL+"/api/v1/datasets/default/ingest", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(bres.Body)
	bres.Body.Close()
	if bres.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), fmt.Sprint(serve.MaxIngestBody)) {
		t.Fatalf("over-limit body: status %d: %s, want 413 naming %d", bres.StatusCode, msg, serve.MaxIngestBody)
	}

	// The pre-ingest session continues on its pinned engine, mutation
	// counter unbroken.
	if len(st.Shown) == 0 {
		t.Fatal("session shows no groups")
	}
	_, _, etag := applyOne(t, ts.URL, st.Session, action.Action{Op: action.Explore, Group: st.Shown[0].ID})
	if got := mutations(t, etag, st.Session); got != 2 {
		t.Fatalf("post-ingest mutation counter %d, want 2", got)
	}

	// New sessions land on the new generation — on whichever shard.
	st2, _ := createV1(t, ts.URL)
	if len(st2.Shown) == 0 {
		t.Fatal("post-ingest session shows no groups")
	}
}

// shardVersions reads every shard's /api/datasets row for the one
// fixture dataset and returns its engine version, in shard order.
func shardVersions(t testing.TB, gw *Gateway) []uint64 {
	t.Helper()
	var out []uint64
	for _, sh := range gw.shardList() {
		var body datasetsDTO
		if err := sh.getJSON("/api/datasets", nil, &body); err != nil {
			t.Fatalf("shard %s: %v", sh.name, err)
		}
		if len(body.Datasets) != 1 {
			t.Fatalf("shard %s listing %+v, want one dataset", sh.name, body.Datasets)
		}
		out = append(out, body.Datasets[0].Version)
	}
	return out
}

// TestGatewayIngestRejectsQuery: the ingest endpoint takes no query
// string, on a shard and through the gateway. The retired ?preview=1
// dry run is refused with 400 rather than ignored — ignoring it would
// commit the batch on every shard — and no engine version moves.
func TestGatewayIngestRejectsQuery(t *testing.T) {
	gw, ts := testCluster(t, 2)
	raw, err := json.Marshal(clusterBatch())
	if err != nil {
		t.Fatal(err)
	}
	sh := gw.shardList()[0]
	res, err := sh.send(context.Background(), sh.client, http.MethodPost, "/api/v1/datasets/default/ingest?preview=1",
		http.Header{"Content-Type": {"application/json"}}, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("shard %s ingest?preview=1: status %d, want 400", sh.name, res.StatusCode)
	}
	for _, q := range []string{"?preview=1", "?seq=1"} {
		if _, hres := postIngestAt(t, ts.URL, "default", q, clusterBatch()); hres.StatusCode != http.StatusBadRequest {
			t.Fatalf("gateway ingest%s: status %d, want 400", q, hres.StatusCode)
		}
	}
	if v := shardVersions(t, gw); fmt.Sprint(v) != "[1 1]" {
		t.Fatalf("shard versions %v after refused ingests, want [1 1]", v)
	}
}

// TestGatewayRejectsBadSequencerReply: shard 0 assigns the seq that
// every other shard is then pinned to, so a reply naming no valid
// position (here seq 0, which would mean "assign" on the next shard)
// answers 502 before any other shard receives the batch.
func TestGatewayRejectsBadSequencerReply(t *testing.T) {
	h0 := shardServer(t).Routes()
	var rewrote atomic.Int32 // written on the gateway's request goroutine
	s0 := LocalShard("s0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/ingest") {
			h0.ServeHTTP(w, r)
			return
		}
		res := ServeInProcess(h0, r)
		body, _ := io.ReadAll(res.Body)
		if bytes.Contains(body, []byte(`"seq":1,`)) {
			body = bytes.Replace(body, []byte(`"seq":1,`), []byte(`"seq":0,`), 1)
			rewrote.Add(1)
		}
		w.WriteHeader(res.StatusCode)
		_, _ = w.Write(body)
	}))
	gw, err := NewGatewayConfig(GatewayConfig{}, s0, LocalShard("s1", shardServer(t).Routes()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Routes())
	t.Cleanup(ts.Close)

	if _, hres := postIngestAt(t, ts.URL, "default", "", clusterBatch()); hres.StatusCode != http.StatusBadGateway {
		t.Fatalf("ingest with a seq-0 sequencer reply: status %d, want 502", hres.StatusCode)
	}
	if n := rewrote.Load(); n != 1 {
		t.Fatalf("rewrote %d sequencer replies, want 1", n)
	}
	// s0 committed before its reply was altered; s1 never saw the batch.
	if v := shardVersions(t, gw); fmt.Sprint(v) != "[2 1]" {
		t.Fatalf("shard versions %v, want [2 1]", v)
	}
}

// TestDecodeIngestReply pins which shard replies the gateway accepts
// from an ingest of "default".
func TestDecodeIngestReply(t *testing.T) {
	for _, c := range []struct {
		raw  string
		sent uint64
		ok   bool
	}{
		{`{"dataset":"default","seq":1,"engineVersion":2,"users":2,"actions":3}`, 0, true},
		{`{"dataset":"default","seq":3,"engineVersion":4}`, 3, true},
		{`{"dataset":"default","seq":1,"engineVersion":4,"alreadyApplied":true}`, 1, true},
		{`{"dataset":"default","seq":0,"engineVersion":1}`, 0, false},
		{`{"dataset":"default","seq":2,"engineVersion":3}`, 1, false},
		{`{"dataset":"other","seq":1,"engineVersion":2}`, 0, false},
		{`{"dataset":"default","seq":1,"engineVersion":3}`, 0, false},
		{`{"dataset":"default","seq":2,"engineVersion":2,"alreadyApplied":true}`, 2, false},
		{`{"dataset":"default","seq":18446744073709551615,"engineVersion":0}`, 0, false},
		{`{"dataset":"default","seq":1,"engineVersion":2,"extra":1}`, 0, false},
		{`{"dataset":"default","seq":1,"engineVersion":2} {}`, 0, false},
		{`{"dataset":"default","seq":-1,"engineVersion":2}`, 0, false},
		{``, 0, false},
	} {
		ir, err := decodeIngestReply([]byte(c.raw), "default", c.sent)
		if (err == nil) != c.ok {
			t.Errorf("decodeIngestReply(%s, sent %d) = %+v, %v; want ok=%v", c.raw, c.sent, ir, err, c.ok)
		}
	}
}

// FuzzDecodeIngestReply: whatever a shard replies, the gateway's
// decoder never panics, and a reply it accepts names the dataset, a
// seq on the ladder (the one sent, if any) and a version that seq can
// produce, and survives a re-encode unchanged.
func FuzzDecodeIngestReply(f *testing.F) {
	for _, seed := range []struct {
		raw  string
		sent uint64
	}{
		{`{"dataset":"default","seq":1,"engineVersion":2,"users":2,"actions":3,"groups":9,"newGroups":1,"changedGroups":4,"notified":2}`, 0},
		{`{"dataset":"default","seq":2,"engineVersion":5,"alreadyApplied":true}`, 2},
		{`{"dataset":"default","seq":0,"engineVersion":2}`, 0},
		{`{"dataset":"default","seq":1,"engineVersion":2}`, 7},
		{`{"dataset":"default","seq":1,"engineVersion":2,"preview":true}`, 0},
		{`{"dataset":"default","seq":1,"engineVersion":2}[]`, 0},
		{`null`, 0},
		{`not json`, 0},
	} {
		f.Add([]byte(seed.raw), seed.sent)
	}
	f.Fuzz(func(t *testing.T, raw []byte, sent uint64) {
		ir, err := decodeIngestReply(raw, "default", sent)
		if err != nil {
			return
		}
		fresh := !ir.AlreadyApplied && ir.EngineVersion == ir.Seq+1 && ir.Seq+1 != 0
		replay := ir.AlreadyApplied && ir.EngineVersion > ir.Seq
		if ir.Dataset != "default" || ir.Seq == 0 || (sent != 0 && ir.Seq != sent) || !(fresh || replay) {
			t.Fatalf("accepted %q (sent %d) as %+v", raw, sent, ir)
		}
		again, err := json.Marshal(ir)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeIngestReply(again, "default", sent)
		if err != nil || back != ir {
			t.Fatalf("accepted %q as %+v, but its re-encoding %s decodes to %+v (%v)", raw, ir, again, back, err)
		}
	})
}
