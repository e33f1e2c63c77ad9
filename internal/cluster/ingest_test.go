package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

	// A pre-ingest session: it must survive the swap untouched.
	st, _ := createV1(t, ts.URL)

	b := clusterBatch()
	res, hres := postIngestAt(t, ts.URL, "default", "", b)
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("gateway ingest status %d", hres.StatusCode)
	}
	if res.Seq != 1 || res.EngineVersion != 2 {
		t.Fatalf("gateway ingest result %+v, want seq 1 → version 2", res)
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

	// Preview proxies read-only to one shard. The batch needs users the
	// committed one did not introduce — it appends to the live engine.
	pb := core.IngestBatch{
		Users: []dataset.NewUser{{ID: "joiner3", Demo: map[string]string{"gender": "female"}}},
		Actions: []dataset.NewAction{
			{User: "joiner3", Item: "ICDE", Value: 1, Time: 2019},
		},
	}
	pres, err := http.Post(ts.URL+"/api/v1/datasets/default/ingest?preview=1", "application/json",
		bytes.NewReader(mustJSON(t, pb)))
	if err != nil {
		t.Fatal(err)
	}
	defer pres.Body.Close()
	if pres.StatusCode != http.StatusOK {
		t.Fatalf("gateway preview status %d", pres.StatusCode)
	}
	var prev struct {
		Candidates []struct {
			Label string `json:"label"`
		} `json:"candidates"`
	}
	if err := json.NewDecoder(pres.Body).Decode(&prev); err != nil {
		t.Fatal(err)
	}
	if len(prev.Candidates) == 0 {
		t.Fatal("gateway preview found no candidates")
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
