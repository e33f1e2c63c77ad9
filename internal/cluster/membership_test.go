package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vexus/internal/action"
	"vexus/internal/membership"
	"vexus/internal/serve"
)

// countingHandler wraps a shard handler and counts every request that
// reaches it — the instrument behind the zero-re-resolution assertion.
type countingHandler struct {
	h http.Handler
	n atomic.Int64
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.n.Add(1)
	c.h.ServeHTTP(w, r)
}

// TestDurableRouteTableReload is the restart regression the route table
// exists for: a gateway reconstructed from its persisted table resumes
// at the saved epoch with the full shard set and identical placement —
// and sends ZERO requests to any shard to get there.
func TestDurableRouteTableReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routes.json")

	handlers := map[string]*countingHandler{}
	mkShard := func(name string) *Shard {
		ch := &countingHandler{h: shardServer(t).Routes()}
		handlers[name] = ch
		return LocalShard(name, ch)
	}

	gwA, err := NewGatewayConfig(GatewayConfig{RoutesPath: path}, mkShard("s0"), mkShard("s1"))
	if err != nil {
		t.Fatal(err)
	}
	if gwA.Epoch() != 1 {
		t.Fatalf("epoch after static seed = %d, want 1", gwA.Epoch())
	}
	// Warm-join a third member (already resident → idempotent stream).
	if _, err := gwA.Join(mkShard("s2")); err != nil {
		t.Fatal(err)
	}
	epochA := gwA.Epoch()
	if epochA != 2 {
		t.Fatalf("epoch after join = %d, want 2", epochA)
	}
	shardsA := gwA.Shards()
	gwA.Close()

	// Reconstruct from the table alone: no static shards, a dial hook
	// that hands back in-process clients. Count every shard request
	// from here on.
	for _, ch := range handlers {
		ch.n.Store(0)
	}
	dialed := 0
	gwB, err := NewGatewayConfig(GatewayConfig{
		RoutesPath: path,
		Dial: func(name, addr string) *Shard {
			dialed++
			return LocalShard(name, handlers[name])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gwB.Close)

	if got := gwB.Shards(); fmt.Sprint(got) != fmt.Sprint(shardsA) {
		t.Fatalf("reloaded shard set %v, want %v", got, shardsA)
	}
	if gwB.Epoch() != epochA {
		t.Fatalf("reloaded epoch = %d, want %d", gwB.Epoch(), epochA)
	}
	if dialed != 3 {
		t.Fatalf("dialed %d members, want 3", dialed)
	}
	for name, ch := range handlers {
		if n := ch.n.Load(); n != 0 {
			t.Fatalf("gateway reload sent %d requests to %s; reload must not re-resolve against shards", n, name)
		}
	}

	// Same epoch ⇒ identical placement, checked at the hash level over
	// a large sid population.
	for i := 0; i < 1000; i++ {
		sid := fmt.Sprintf("sid-%04d", i)
		if Owner(shardsA, sid) != Owner(gwB.Shards(), sid) {
			t.Fatalf("placement diverged for %s", sid)
		}
	}

	// And the reloaded gateway actually serves: a create lands.
	ts := httptest.NewServer(gwB.Routes())
	t.Cleanup(ts.Close)
	if st, _ := createV1(t, ts.URL); st.Session == "" {
		t.Fatal("create through reloaded gateway failed")
	}
}

// TestTwoGatewaysSamePlacement: two gateways independently constructed
// over the same member set hold the same epoch and route every session
// identically — a session created through one is served through the
// other with no route state shared between them.
func TestTwoGatewaysSamePlacement(t *testing.T) {
	h0 := shardServer(t).Routes()
	h1 := shardServer(t).Routes()
	h2 := shardServer(t).Routes()

	gw1, err := NewGatewayConfig(GatewayConfig{}, LocalShard("s0", h0), LocalShard("s1", h1), LocalShard("s2", h2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw1.Close)
	// Different construction order: placement must not depend on it.
	gw2, err := NewGatewayConfig(GatewayConfig{}, LocalShard("s2", h2), LocalShard("s0", h0), LocalShard("s1", h1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw2.Close)

	if gw1.Epoch() != gw2.Epoch() {
		t.Fatalf("independent gateways disagree on epoch: %d vs %d", gw1.Epoch(), gw2.Epoch())
	}
	ts1 := httptest.NewServer(gw1.Routes())
	ts2 := httptest.NewServer(gw2.Routes())
	t.Cleanup(ts1.Close)
	t.Cleanup(ts2.Close)
	for i := 0; i < 10; i++ {
		st, _ := createV1(t, ts1.URL)
		if _, _, status := getStateRaw(t, ts2.URL, st.Session); status != http.StatusOK {
			t.Fatalf("session %s created via gw1 not served via gw2: status %d", st.Session, status)
		}
	}
}

// TestRendezvousMinimalDisruption pins the property the whole topology
// design leans on: adding one member to N remaps ~1/(N+1) of a large
// sid population onto the newcomer and nothing else moves; removing
// one member remaps exactly the sids it owned.
func TestRendezvousMinimalDisruption(t *testing.T) {
	names := []string{"s0", "s1", "s2", "s3", "s4"}
	grown := append(append([]string{}, names...), "s5")
	const population = 20000

	moved, movedElsewhere := 0, 0
	ownedByS2, movedOffS2 := 0, 0
	shrunk := []string{"s0", "s1", "s3", "s4"} // s2 removed
	for i := 0; i < population; i++ {
		sid := fmt.Sprintf("session-%05d", i)
		before := Owner(names, sid)

		// Grow: the only allowed movement is onto the newcomer.
		after := Owner(grown, sid)
		if after != before {
			moved++
			if after != "s5" {
				movedElsewhere++
			}
		}

		// Shrink: only s2's sids move.
		if before == "s2" {
			ownedByS2++
		}
		if postRemove := Owner(shrunk, sid); postRemove != before {
			movedOffS2++
			if before != "s2" {
				t.Fatalf("removing s2 moved %s owned by %s", sid, before)
			}
		}
	}
	if movedElsewhere != 0 {
		t.Fatalf("%d sids moved between surviving members on grow", movedElsewhere)
	}
	frac := float64(moved) / population
	if frac < 0.12 || frac > 0.22 {
		t.Fatalf("grow remapped %.3f of sids, want ~1/6", frac)
	}
	if movedOffS2 != ownedByS2 {
		t.Fatalf("shrink moved %d sids, s2 owned %d", movedOffS2, ownedByS2)
	}
}

// TestWarmJoinAbortMidStream kills the snapshot stream mid-transfer and
// asserts the join fails closed end to end: the joiner is never
// admitted, the epoch never moves, and the joiner keeps refusing
// traffic.
func TestWarmJoinAbortMidStream(t *testing.T) {
	// Donor whose snapshot endpoint truncates the stream halfway.
	donorInner := shardServer(t).Routes()
	donorH := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/internal/cluster/snapshot") {
			rec := httptest.NewRecorder()
			donorInner.ServeHTTP(rec, r)
			raw := rec.Body.Bytes()
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			w.Write(raw[:len(raw)/2])
			return
		}
		donorInner.ServeHTTP(w, r)
	})

	gw, err := NewGatewayConfig(GatewayConfig{}, LocalShard("s0", donorH))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	joinerH := warmJoiner(t).Routes()

	epochBefore := gw.Epoch()
	if _, err := gw.Join(LocalShard("s1", joinerH)); err == nil {
		t.Fatal("join with a truncated snapshot stream should fail")
	}
	if got := gw.Shards(); len(got) != 1 {
		t.Fatalf("aborted join admitted the shard: %v", got)
	}
	if gw.Epoch() != epochBefore {
		t.Fatalf("aborted join moved the epoch: %d -> %d", epochBefore, gw.Epoch())
	}
	// The joiner installed nothing: still failing closed.
	rec := httptest.NewRecorder()
	joinerH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("joiner readyz after aborted join = %d, want 503", rec.Code)
	}

	// An intact donor warms the same joiner successfully — proving the
	// abort above was the stream's fault, not the harness's.
	gw2, err := NewGatewayConfig(GatewayConfig{}, LocalShard("s0", shardServer(t).Routes()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw2.Close)
	if _, err := gw2.Join(LocalShard("s1", joinerH)); err != nil {
		t.Fatalf("join with intact stream: %v", err)
	}
	rec = httptest.NewRecorder()
	joinerH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("joiner readyz after warm join = %d, want 200", rec.Code)
	}
}

// TestWarmJoinRightAfterDonorStart: a warm-only joiner joined right
// after its donor started, before any session exists, receives the
// default engine and turns ready. The donor builds that engine before
// it serves (as vexus-server does before it listens); a donor that
// built on first use would list nothing resident, and the join would
// admit a joiner that never becomes ready.
func TestWarmJoinRightAfterDonorStart(t *testing.T) {
	gw, err := NewGatewayConfig(GatewayConfig{}, LocalShard("s0", shardServer(t).Routes()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	joinerH := warmJoiner(t).Routes()
	if _, err := gw.Join(LocalShard("s1", joinerH)); err != nil {
		t.Fatalf("warm join: %v", err)
	}
	rec := httptest.NewRecorder()
	joinerH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("joiner readyz after warm join = %d, want 200: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	joinerH.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/sessions", nil))
	if rec.Code != http.StatusCreated {
		t.Fatalf("joiner create after warm join = %d, want 201: %s", rec.Code, rec.Body)
	}
	// The streamed engine is metered.
	if got := gw.met.reg.Snapshot()["vexus_cluster_warmjoin_bytes_total"]; got <= 0 {
		t.Fatalf("vexus_cluster_warmjoin_bytes_total = %v after a warm join, want > 0", got)
	}
}

// TestGatewayFailureDetection drives the gossip lifecycle end to end:
// a joined member that stops heartbeating is suspected, then marked
// down (epoch bump, readyz names it, routes fail closed), and a
// heartbeat brings it back (epoch bump, ready again).
func TestGatewayFailureDetection(t *testing.T) {
	h1 := shardServer(t).Routes()
	gw, err := NewGatewayConfig(GatewayConfig{
		SuspectAfter: 150 * time.Millisecond,
		DownAfter:    300 * time.Millisecond,
	}, LocalShard("s0", shardServer(t).Routes()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Routes())
	t.Cleanup(ts.Close)

	if _, err := gw.Join(LocalShard("s1", h1)); err != nil {
		t.Fatal(err)
	}
	epochJoined := gw.Epoch()

	heartbeat := func(name string) (int, membership.Ack) {
		t.Helper()
		body, _ := json.Marshal(membership.Member{Name: name})
		res, err := http.Post(ts.URL+"/internal/cluster/heartbeat", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var ack membership.Ack
		if res.StatusCode == http.StatusOK {
			if err := json.NewDecoder(res.Body).Decode(&ack); err != nil {
				t.Fatal(err)
			}
		} else {
			io.Copy(io.Discard, res.Body)
		}
		return res.StatusCode, ack
	}

	// The ack is the gossip piggyback: epoch plus full roster.
	status, ack := heartbeat("s1")
	if status != http.StatusOK || ack.Epoch != epochJoined || len(ack.Members) != 2 {
		t.Fatalf("heartbeat ack: status %d, %+v", status, ack)
	}
	// Unknown members don't get in via gossip.
	if status, _ := heartbeat("stranger"); status != http.StatusNotFound {
		t.Fatalf("unknown member heartbeat: status %d, want 404", status)
	}

	// A session on the survivor, one mutation in before the verdict.
	var survivor stateLite
	for i := 0; i < 64 && survivor.Session == ""; i++ {
		st, _ := createV1(t, ts.URL)
		gw.mu.RLock()
		onS0 := gw.routes[st.Session].shard.name == "s0"
		gw.mu.RUnlock()
		if onS0 {
			survivor = st
		}
	}
	if survivor.Session == "" {
		t.Fatal("no session landed on s0")
	}
	survivor, _, _ = applyOne(t, ts.URL, survivor.Session, action.Action{Op: action.Explore, Group: survivor.Shown[0].ID})

	// s1 goes silent; the sweeper marks it down within a few horizons.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal("timeout waiting for " + what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitFor("s1 marked down", func() bool { return gw.Epoch() == epochJoined+1 })

	// readyz names the downed member.
	res, err := http.Get(ts.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "s1") {
		t.Fatalf("readyz with down member: status %d body %q", res.StatusCode, body)
	}
	// The status body and metrics agree.
	st := gw.Status()
	if st.Epoch != epochJoined+1 {
		t.Fatalf("status epoch %d", st.Epoch)
	}
	downSeen := false
	for _, mi := range st.Members {
		if mi.Name == "s1" && mi.State == membership.StateDown {
			downSeen = true
		}
	}
	if !downSeen {
		t.Fatalf("status members missing down verdict: %+v", st.Members)
	}
	mres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mres.Body)
	mres.Body.Close()
	if !strings.Contains(string(mbody), `vexus_cluster_members{state="down"} 1`) {
		t.Fatal("metrics missing down member gauge")
	}
	if !strings.Contains(string(mbody), fmt.Sprintf("vexus_cluster_epoch %d", epochJoined+1)) {
		t.Fatal("metrics missing epoch gauge")
	}

	// The survivor's session keeps its history: its counter goes on.
	_, _, etag := applyOne(t, ts.URL, survivor.Session, action.Action{Op: action.Explore, Group: survivor.Shown[0].ID})
	if got := mutations(t, etag, survivor.Session); got != 3 {
		t.Fatalf("survivor session after the down verdict at mutation %d, want 3", got)
	}

	// Creates keep landing — on the survivor only.
	for i := 0; i < 5; i++ {
		if st, _ := createV1(t, ts.URL); st.Session == "" {
			t.Fatal("create with one member down failed")
		}
	}

	// Recovery: one heartbeat re-enters the routing set.
	status, ack = heartbeat("s1")
	if status != http.StatusOK || ack.Epoch != epochJoined+2 {
		t.Fatalf("recovery heartbeat: status %d epoch %d, want %d", status, ack.Epoch, epochJoined+2)
	}
	waitFor("ready again", func() bool {
		res, err := http.Get(ts.URL + "/api/v1/readyz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return res.StatusCode == http.StatusOK
	})
}

// TestGatewayClusterAuth: with a secret configured, unauthenticated
// /internal/cluster/* requests are rejected at both layers, while the
// gateway's own hops (create, migrate, warm join) authenticate
// transparently.
func TestGatewayClusterAuth(t *testing.T) {
	const secret = "swordfish"

	mkShard := func(name string) *Shard {
		scfg := serve.DefaultConfig()
		scfg.ClusterSecret = secret
		return LocalShard(name, specShard(t, fixtureSpec, fixtureWorkers, scfg).Routes())
	}
	gw, err := NewGatewayConfig(GatewayConfig{Secret: secret}, mkShard("s0"), mkShard("s1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Routes())
	t.Cleanup(ts.Close)

	// Gateway-side: heartbeat rejects without the secret...
	body, _ := json.Marshal(membership.Member{Name: "s0"})
	res, err := http.Post(ts.URL+"/internal/cluster/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated heartbeat: status %d, want 401", res.StatusCode)
	}
	// The rejection is visible on the gateway's own request counter.
	rejected := `vexus_gateway_requests_total{route="POST /internal/cluster/heartbeat",status="401"}`
	if got := gw.met.reg.Snapshot()[rejected]; got != 1 {
		t.Fatalf("%s = %v, want 1", rejected, got)
	}
	// ...and accepts with it.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/internal/cluster/heartbeat", bytes.NewReader(body))
	req.Header.Set(membership.SecretHeader, secret)
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("authenticated heartbeat: status %d", res.StatusCode)
	}

	// The gateway's own hops carry the secret: creates, drains
	// (export/import/delete), and warm joins all work.
	sids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		st, _ := createV1(t, ts.URL)
		sids = append(sids, st.Session)
	}
	if _, err := gw.Join(mkShard("s2")); err != nil {
		t.Fatalf("authenticated warm join: %v", err)
	}
	if _, err := gw.Drain("s1"); err != nil {
		t.Fatalf("authenticated drain: %v", err)
	}
	for _, sid := range sids {
		if _, _, status := getStateRaw(t, ts.URL, sid); status != http.StatusOK {
			t.Fatalf("session %s lost across authenticated drain: status %d", sid, status)
		}
	}
}

// reloadedGateway starts a gateway from a route table alone, holding
// the given members at epoch 3. Its dial hook hands back handlers[name]
// in-process and declines any member whose address is "bad" — a member
// the gateway cannot dial until a heartbeat brings a good address.
func reloadedGateway(t *testing.T, handlers map[string]http.Handler, members ...membership.MemberInfo) (*Gateway, *httptest.Server) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "routes.json")
	raw, err := json.Marshal(tableDoc{Version: tableVersion, Epoch: 3, Members: members})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	gw, err := NewGatewayConfig(GatewayConfig{
		RoutesPath:  path,
		ManualSweep: true,
		Dial: func(name, addr string) *Shard {
			if addr == "bad" {
				return nil
			}
			return LocalShard(name, handlers[name])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Routes())
	t.Cleanup(ts.Close)
	return gw, ts
}

func memberInfo(name, addr string, state membership.State) membership.MemberInfo {
	return membership.MemberInfo{Member: membership.Member{Name: name, Addr: addr}, State: state}
}

// post issues a bodyless or JSON POST and returns status and body.
func post(t *testing.T, url string, body any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, _ := json.Marshal(body)
		rd = bytes.NewReader(raw)
	}
	res, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	out, _ := io.ReadAll(res.Body)
	return res.StatusCode, string(out)
}

// TestHeartbeatDialsClientlessMember: a member reloaded with an address
// the gateway cannot dial gets a client from its first heartbeat that
// carries a good one — not only on a down→alive transition.
func TestHeartbeatDialsClientlessMember(t *testing.T) {
	gw, ts := reloadedGateway(t, map[string]http.Handler{
		"s0": shardServer(t).Routes(),
		"s1": shardServer(t).Routes(),
	}, memberInfo("s0", "s0:1", membership.StateAlive), memberInfo("s1", "bad", membership.StateAlive))

	if got := fmt.Sprint(gw.Shards()); got != "[s0]" {
		t.Fatalf("shards before heartbeat = %s, want [s0]", got)
	}
	if status, body := post(t, ts.URL+"/internal/cluster/heartbeat", membership.Member{Name: "s1", Addr: "s1:1"}); status != http.StatusOK {
		t.Fatalf("heartbeat: status %d: %s", status, body)
	}
	if got := fmt.Sprint(gw.Shards()); got != "[s0 s1]" {
		t.Fatalf("shards after heartbeat = %s, want [s0 s1]", got)
	}
	if gw.Epoch() != 3 {
		t.Fatalf("dialing a member moved the epoch to %d", gw.Epoch())
	}
}

// TestRemoveClientlessDownMember: a reloaded member that is down and
// has no client holds readyz at 503 until the operator removes it —
// which the 503 says to do, so remove must find it.
func TestRemoveClientlessDownMember(t *testing.T) {
	_, ts := reloadedGateway(t, map[string]http.Handler{"s0": shardServer(t).Routes()},
		memberInfo("s0", "s0:1", membership.StateAlive), memberInfo("s1", "bad", membership.StateDown))

	res, err := http.Get(ts.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "s1") {
		t.Fatalf("readyz with down member: status %d body %q", res.StatusCode, body)
	}
	if status, body := post(t, ts.URL+"/api/v1/cluster/remove?shard=s1", nil); status != http.StatusOK {
		t.Fatalf("remove of a down, client-less member: status %d: %s", status, body)
	}
	res, err = http.Get(ts.URL + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || string(body) != "ready\n" {
		t.Fatalf("readyz after remove: status %d body %q", res.StatusCode, body)
	}
}

// TestDrainAndRemoveKeepARoutableShard: with s1 down, s0 is the only
// shard that can take sessions, so neither drain nor remove may take it
// out, and creates keep landing.
func TestDrainAndRemoveKeepARoutableShard(t *testing.T) {
	_, ts := reloadedGateway(t, map[string]http.Handler{
		"s0": shardServer(t).Routes(),
		"s1": shardServer(t).Routes(),
	}, memberInfo("s0", "s0:1", membership.StateAlive), memberInfo("s1", "s1:1", membership.StateDown))

	if status, body := post(t, ts.URL+"/api/v1/cluster/drain?shard=s0", nil); status == http.StatusOK {
		t.Fatalf("drain of the last routable shard succeeded: %s", body)
	}
	if status, body := post(t, ts.URL+"/api/v1/cluster/remove?shard=s0", nil); status == http.StatusOK {
		t.Fatalf("remove of the last routable shard succeeded: %s", body)
	}
	if status, body := post(t, ts.URL+"/api/v1/sessions", nil); status != http.StatusCreated {
		t.Fatalf("create after refused drain and remove: status %d: %s", status, body)
	}
}

// TestJoinSkipsDownMember: a join rebalances from the routable members
// only. A down member that answers 503 to its session listing is
// skipped, and the joiner still takes every session it hash-owns on
// the live one.
func TestJoinSkipsDownMember(t *testing.T) {
	unavailable := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	gw, ts := reloadedGateway(t, map[string]http.Handler{
		"s0": shardServer(t).Routes(),
		"s1": unavailable,
	}, memberInfo("s0", "s0:1", membership.StateAlive), memberInfo("s1", "s1:1", membership.StateDown))

	var sids []string
	for i := 0; i < 8; i++ {
		st, _ := createV1(t, ts.URL)
		sids = append(sids, st.Session)
	}
	moved, err := gw.Join(LocalShard("s2", shardServer(t).Routes()))
	if err != nil {
		t.Fatalf("join with a down member: %v", err)
	}
	wantMoved := 0
	names := gw.Shards()
	for _, sid := range sids {
		if Owner(names, sid) == "s2" {
			wantMoved++
		}
	}
	if wantMoved == 0 {
		t.Fatal("fixture too small: no session reassigned to the joining shard")
	}
	if moved != wantMoved {
		t.Fatalf("join moved %d sessions, hash reassigns %d", moved, wantMoved)
	}
	for _, sid := range sids {
		if _, _, status := getStateRaw(t, ts.URL, sid); status != http.StatusOK {
			t.Fatalf("state %s after join: status %d", sid, status)
		}
	}
}

// FuzzHeartbeat: the heartbeat handler never panics, answers 4xx to a
// body it cannot use (bad JSON, no name, unknown member), and never
// admits a member or moves the epoch, whatever it is sent.
func FuzzHeartbeat(f *testing.F) {
	for _, seed := range []string{
		`{"name":"s0"}`,
		`{"name":"s1","addr":"s1:1","sessions":3,"engines":{"default":2}}`,
		`{"name":"s1","static":true,"sessions":-1}`,
		`{"name":"ghost","addr":"ghost:1"}`,
		`{"name":""}`,
		`{}`,
		`{"name":"s0"}{"name":"ghost"}`,
		`{"name":"s0","engines":{"default":-1}}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	idle := http.NotFoundHandler()
	path := filepath.Join(f.TempDir(), "routes.json")
	raw, _ := json.Marshal(tableDoc{Version: tableVersion, Epoch: 3, Members: []membership.MemberInfo{
		memberInfo("s0", "s0:1", membership.StateAlive), memberInfo("s1", "", membership.StateAlive),
	}})
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		f.Fatal(err)
	}
	gw, err := NewGatewayConfig(GatewayConfig{
		RoutesPath:  path,
		ManualSweep: true,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		Dial: func(name, addr string) *Shard {
			if addr == "" {
				return nil
			}
			return LocalShard(name, idle)
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(gw.Close)
	h := gw.Routes()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/internal/cluster/heartbeat", bytes.NewReader(body)))

		var m membership.Member
		want := http.StatusNotFound
		if json.NewDecoder(bytes.NewReader(body)).Decode(&m) != nil || m.Name == "" {
			want = http.StatusBadRequest
		} else if m.Name == "s0" || m.Name == "s1" {
			want = http.StatusOK
		}
		if rec.Code != want {
			t.Fatalf("heartbeat %q: status %d, want %d: %s", body, rec.Code, want, rec.Body)
		}
		if want == http.StatusOK {
			var ack membership.Ack
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.Epoch != 3 || len(ack.Members) != 2 {
				t.Fatalf("heartbeat %q: ack %s (%v)", body, rec.Body, err)
			}
		}
		names := []string{}
		for _, mi := range gw.Members() {
			names = append(names, mi.Name)
		}
		if fmt.Sprint(names) != "[s0 s1]" || gw.Epoch() != 3 {
			t.Fatalf("heartbeat %q changed the roster: %v at epoch %d", body, names, gw.Epoch())
		}
	})
}

// TestRoutedRequestSkipsRosterLock: a request whose session already has
// a route reads only the route, so it is served while the roster lock —
// which persistence holds across the route table's file write — is taken.
func TestRoutedRequestSkipsRosterLock(t *testing.T) {
	gw, ts := testCluster(t, 2)
	st, _ := createV1(t, ts.URL)

	gw.roster.mu.Lock()
	done := make(chan int, 1)
	go func() {
		res, err := http.Get(ts.URL + "/api/v1/sessions/" + st.Session + "/state")
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		done <- res.StatusCode
	}()
	select {
	case status := <-done:
		gw.roster.mu.Unlock()
		if status != http.StatusOK {
			t.Fatalf("routed request with the roster locked: status %d", status)
		}
	case <-time.After(5 * time.Second):
		gw.roster.mu.Unlock()
		<-done
		t.Fatal("routed request waited on the roster lock")
	}
}

// TestSweepReclaimsRoutesPastDownMember: a manual-sweep gateway's
// Sweep reconciles routes too, and a down member that was never
// removed does not stop it. The down member answers 503 to every
// request; its routes were dropped when it went down, so only the
// routable members are listed.
func TestSweepReclaimsRoutesPastDownMember(t *testing.T) {
	unreachable := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	gw, ts := reloadedGateway(t, map[string]http.Handler{"s0": shardServer(t).Routes(), "s1": unreachable},
		memberInfo("s0", "s0:1", membership.StateAlive), memberInfo("s1", "s1:1", membership.StateDown))
	if got := gw.Shards(); fmt.Sprint(got) != "[s0]" {
		t.Fatalf("routing set %v, want [s0]", got)
	}

	dead, _ := createV1(t, ts.URL)
	alive, _ := createV1(t, ts.URL)
	gw.mu.RLock()
	sh := gw.routes[dead.Session].shard
	gw.mu.RUnlock()
	res, err := sh.send(context.Background(), sh.client, http.MethodDelete, "/api/v1/sessions/"+dead.Session, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()

	gw.Sweep()
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
}
