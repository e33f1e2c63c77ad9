package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// oneUserBatch adds one new author, id, with one paper; distinct ids
// make distinct batches.
func oneUserBatch(id string) core.IngestBatch {
	return core.IngestBatch{
		Users: []dataset.NewUser{{ID: id, Demo: map[string]string{
			"gender": "female", "seniority": "junior", "country": "fr", "topic": "databases",
		}, Numeric: map[string]float64{"pubrate": 3}}},
		Actions: []dataset.NewAction{{User: id, Item: "SIGMOD", Value: 1, Time: 2018}},
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

// TestGatewayRefusesDifferentBatchAtCommittedSeq: a different batch
// sent through the gateway at a committed seq is refused with 409 by
// every shard — not acknowledged as a replay, which would drop its rows
// — and every shard stays at its version.
func TestGatewayRefusesDifferentBatchAtCommittedSeq(t *testing.T) {
	gw, ts := testCluster(t, 2)
	if _, hres := postIngestAt(t, ts.URL, "default", "", clusterBatch()); hres.StatusCode != http.StatusOK {
		t.Fatalf("gateway ingest status %d", hres.StatusCode)
	}
	other := oneUserBatch("late1")
	other.Seq = 1
	if _, hres := postIngestAt(t, ts.URL, "default", "", other); hres.StatusCode != http.StatusConflict {
		t.Fatalf("different batch at committed seq 1: status %d, want 409", hres.StatusCode)
	}
	if v := shardVersions(t, gw); fmt.Sprint(v) != "[2 2]" {
		t.Fatalf("shard versions %v after the refused batch, want [2 2]", v)
	}
}

// TestGatewayIngestFansOutConcurrently: once the gateway knows the
// seq, every shard gets the batch at once. Each of three shards holds
// its ingest POST at a barrier until its group has arrived (5 s at
// most): the first ingest, whose seq the first shard assigns, arrives
// one, then two; the second, under the gateway's hint, all three at
// once. A sequential fan-out never gathers more than one and times out.
func TestGatewayIngestFansOutConcurrently(t *testing.T) {
	ends := []int32{1, 3, 6} // cumulative arrivals that close each group
	var arrived atomic.Int32
	hold := func() bool {
		n := arrived.Add(1)
		end := n
		for _, e := range ends {
			if e >= n {
				end = e
				break
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for arrived.Load() < end {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	}
	shards := make([]*Shard, 3)
	for i := range shards {
		h := shardServer(t).Routes()
		shards[i] = LocalShard(fmt.Sprintf("s%d", i), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/ingest") && !hold() {
				http.Error(w, "ingest barrier timed out", http.StatusGatewayTimeout)
				return
			}
			h.ServeHTTP(w, r)
		}))
	}
	gw, err := NewGatewayConfig(GatewayConfig{}, shards...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Routes())
	t.Cleanup(ts.Close)

	for i, b := range []core.IngestBatch{clusterBatch(), oneUserBatch("joiner3")} {
		res, hres := postIngestAt(t, ts.URL, "default", "", b)
		if hres.StatusCode != http.StatusOK || res.Seq != uint64(i+1) || res.EngineVersion != uint64(i+2) {
			t.Fatalf("ingest %d: status %d result %+v, want seq %d → version %d", i+1, hres.StatusCode, res, i+1, i+2)
		}
	}
	if n := arrived.Load(); n != 6 {
		t.Fatalf("%d ingest POSTs reached the shards, want 6", n)
	}
	if v := shardVersions(t, gw); fmt.Sprint(v) != "[3 3 3]" {
		t.Fatalf("shard versions %v, want [3 3 3]", v)
	}
}

// TestGatewayIngestStaleHint: the gateway's seq hint is only a guess.
// When another writer has moved every shard on, s0 refuses the hinted
// seq (it holds a different batch). Whether s1 refuses it too or fails
// with a 503, no shard took the batch, so the gateway reruns it with
// the first shard assigning the seq, in the same request: the client
// never sees the refusal of a seq it did not send. When s1 cannot be
// reached it may hold the batch, so the gateway answers 502, and the
// retry goes first-shard-first.
func TestGatewayIngestStaleHint(t *testing.T) {
	const (
		asShard = iota
		overloaded
		unreachable
	)
	for _, c := range []struct {
		name string
		s1   int32 // how s1 answers the hinted ingest
	}{{"both refuse", asShard}, {"one refuses, one fails", overloaded}, {"one refuses, one unreachable", unreachable}} {
		t.Run(c.name, func(t *testing.T) {
			h1 := shardServer(t).Routes()
			var fail atomic.Int32 // s1's answer to its next ingest, reset once used
			s1 := LocalShard("s1", h1)
			s1.client = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				if strings.HasSuffix(r.URL.Path, "/ingest") {
					switch fail.Swap(asShard) {
					case overloaded:
						rec := httptest.NewRecorder()
						http.Error(rec, "overloaded", http.StatusServiceUnavailable)
						return rec.Result(), nil
					case unreachable:
						return nil, errors.New("connection refused")
					}
				}
				return ServeInProcess(h1, r), nil
			})}
			gw, err := NewGatewayConfig(GatewayConfig{}, LocalShard("s0", shardServer(t).Routes()), s1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(gw.Close)
			ts := httptest.NewServer(gw.Routes())
			t.Cleanup(ts.Close)

			if res, hres := postIngestAt(t, ts.URL, "default", "", clusterBatch()); hres.StatusCode != http.StatusOK || res.Seq != 1 {
				t.Fatalf("gateway ingest: status %d result %+v, want seq 1", hres.StatusCode, res)
			}
			// The gateway's hint is now seq 2; commit a different batch
			// there on every shard, past the gateway.
			side := oneUserBatch("side1")
			side.Seq = 2
			raw, err := json.Marshal(side)
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range gw.shardList() {
				res, err := sh.send(context.Background(), sh.client, http.MethodPost, "/api/v1/datasets/default/ingest",
					http.Header{"Content-Type": {"application/json"}}, bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					t.Fatalf("shard %s direct ingest: status %d", sh.name, res.StatusCode)
				}
			}
			fail.Store(c.s1)
			res, hres := postIngestAt(t, ts.URL, "default", "", oneUserBatch("joiner3"))
			if c.s1 == unreachable {
				if hres.StatusCode != http.StatusBadGateway {
					t.Fatalf("ingest past a stale hint with s1 unreachable: status %d, want 502", hres.StatusCode)
				}
				if v := shardVersions(t, gw); fmt.Sprint(v) != "[3 3]" {
					t.Fatalf("shard versions %v after the 502, want [3 3]", v)
				}
				res, hres = postIngestAt(t, ts.URL, "default", "", oneUserBatch("joiner3"))
			}
			if hres.StatusCode != http.StatusOK || res.Seq != 3 || res.EngineVersion != 4 || res.AlreadyApplied {
				t.Fatalf("ingest past a stale hint: status %d result %+v, want a commit of seq 3 → version 4", hres.StatusCode, res)
			}
			if v := shardVersions(t, gw); fmt.Sprint(v) != "[4 4]" {
				t.Fatalf("shard versions %v, want [4 4]", v)
			}
		})
	}
}

// roundTripFunc is an http.RoundTripper made of a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestGatewayIngestRacingWritersDiverge: a pinned seq has no single
// arbiter. Two gateways, each holding the hint seq 2, race different
// batches, and the shards take them in opposite orders: s0 commits
// racerA and refuses racerB, s1 the reverse. Both ingests answer 502.
// The shards now sit at one version with different lineages, so every
// later ingest, through either gateway, answers 502 "cluster
// divergence" — their chain heads differ — and never 200. The 502
// names the straying shard and the reference shard it was held to.
func TestGatewayIngestRacingWritersDiverge(t *testing.T) {
	racers := []string{"racerA", "racerB"}
	handlers := make([]http.Handler, len(racers))
	for i := range handlers {
		h := shardServer(t).Routes()
		first := racers[i] // the racer shard i takes first
		done := make(chan struct{})
		var once sync.Once
		handlers[i] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/ingest") {
				raw, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(raw))
				b, _ := core.DecodeIngestJSON(raw)
				if len(b.Users) > 0 {
					switch id := b.Users[0].ID; {
					case id == first:
						defer once.Do(func() { close(done) })
					case strings.HasPrefix(id, "racer"):
						select {
						case <-done:
						case <-time.After(5 * time.Second):
							http.Error(w, "race barrier timed out", http.StatusGatewayTimeout)
							return
						}
					}
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	gws := make([]*Gateway, len(racers))
	urls := make([]string, len(racers))
	for i := range gws {
		gw, err := NewGatewayConfig(GatewayConfig{}, LocalShard("s0", handlers[0]), LocalShard("s1", handlers[1]))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(gw.Close)
		ts := httptest.NewServer(gw.Routes())
		t.Cleanup(ts.Close)
		gws[i], urls[i] = gw, ts.URL
	}
	// Gateway A commits seq 1; gateway B replays it. Each now holds
	// the hint seq 2.
	if res, hres := postIngestAt(t, urls[0], "default", "", clusterBatch()); hres.StatusCode != http.StatusOK || res.EngineVersion != 2 {
		t.Fatalf("gateway A ingest: status %d result %+v, want version 2", hres.StatusCode, res)
	}
	replay := clusterBatch()
	replay.Seq = 1
	if res, hres := postIngestAt(t, urls[1], "default", "", replay); hres.StatusCode != http.StatusOK || !res.AlreadyApplied || res.EngineVersion != 2 {
		t.Fatalf("gateway B replay: status %d result %+v, want alreadyApplied at version 2", hres.StatusCode, res)
	}

	post := func(base string, b core.IngestBatch) (int, string, error) {
		raw, err := json.Marshal(b)
		if err != nil {
			return 0, "", err
		}
		res, err := http.Post(base+"/api/v1/datasets/default/ingest", "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, "", err
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		return res.StatusCode, string(body), err
	}
	var wg sync.WaitGroup
	for i, id := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, err := post(urls[i], oneUserBatch(id))
			if err != nil || status != http.StatusBadGateway {
				t.Errorf("%s through gateway %d: status %d %s (%v), want 502", id, i, status, body, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if v := shardVersions(t, gws[0]); fmt.Sprint(v) != "[3 3]" {
		t.Fatalf("shard versions %v after the race, want [3 3]", v)
	}
	for i, base := range urls {
		status, body, err := post(base, oneUserBatch(fmt.Sprintf("later%d", i)))
		if err != nil || status != http.StatusBadGateway || !strings.Contains(body, "cluster divergence") {
			t.Fatalf("ingest through gateway %d after the split: status %d %s (%v), want 502 cluster divergence", i, status, body, err)
		}
		// The 502 names both sides: the straying shard and the first
		// shard, whose reply every other is held to.
		if !strings.Contains(body, "shard s1 at version") || !strings.Contains(body, "reference shard s0 at version") {
			t.Fatalf("divergence 502 through gateway %d does not name both shards: %s", i, body)
		}
	}
}

// TestGatewayRejectsBadHintedReply is TestGatewayRejectsBadSequencerReply
// for a batch sent under the gateway's hint: every shard gets it at
// once, so every shard commits, but a reply naming no valid position
// still answers 502 and drops the hint — the next ingest goes to the
// first shard alone, which assigns the seq.
func TestGatewayRejectsBadHintedReply(t *testing.T) {
	h0 := shardServer(t).Routes()
	var tamper atomic.Bool
	var mu sync.Mutex
	var sent []uint64 // the seq of every ingest s0 received
	s0 := LocalShard("s0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/ingest") {
			h0.ServeHTTP(w, r)
			return
		}
		raw, _ := io.ReadAll(r.Body)
		b, err := core.DecodeIngestJSON(raw)
		if err != nil {
			t.Errorf("s0 ingest body: %v", err)
		}
		mu.Lock()
		sent = append(sent, b.Seq)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(raw))
		res := ServeInProcess(h0, r)
		body, _ := io.ReadAll(res.Body)
		if tamper.Load() {
			body = bytes.Replace(body, []byte(`"seq":2,`), []byte(`"seq":0,`), 1)
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

	if _, hres := postIngestAt(t, ts.URL, "default", "", clusterBatch()); hres.StatusCode != http.StatusOK {
		t.Fatalf("first ingest: status %d", hres.StatusCode)
	}
	tamper.Store(true)
	if _, hres := postIngestAt(t, ts.URL, "default", "", oneUserBatch("joiner3")); hres.StatusCode != http.StatusBadGateway {
		t.Fatalf("hinted ingest with a seq-0 reply: status %d, want 502", hres.StatusCode)
	}
	tamper.Store(false)
	if v := shardVersions(t, gw); fmt.Sprint(v) != "[3 3]" {
		t.Fatalf("shard versions %v after the hinted ingest, want [3 3]", v)
	}
	res, hres := postIngestAt(t, ts.URL, "default", "", oneUserBatch("joiner4"))
	if hres.StatusCode != http.StatusOK || res.Seq != 3 || res.EngineVersion != 4 {
		t.Fatalf("ingest after the 502: status %d result %+v, want seq 3 → version 4", hres.StatusCode, res)
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(sent) != "[0 2 0]" {
		t.Fatalf("s0 received seqs %v, want [0 2 0]: assigned, hinted, assigned after the hint was dropped", sent)
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
		{`{"dataset":"default","seq":3,"engineVersion":4,"head":"00ff"}`, 3, true},
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
