package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"vexus/internal/membership"
	"vexus/internal/serve"
)

// The gateway half of cluster self-management: heartbeat intake,
// failure detection, and the warm-join snapshot pump. The roster
// (roster.go) owns the durable member table and epoch; this file is
// where its verdicts turn into routing actions — a down member's routes
// fail closed, a recovered member re-enters with the client it kept, a
// joiner is warmed before it can win a placement.

// Epoch reports the topology epoch: the version of the routing set.
// Two gateways at the same epoch place every session id identically.
func (g *Gateway) Epoch() uint64 { return g.roster.Epoch() }

// Members snapshots the membership roster, sorted by name.
func (g *Gateway) Members() []membership.MemberInfo { return g.roster.Members() }

// handleHeartbeat is POST /internal/cluster/heartbeat: a shard
// announcing itself. The ack carries the topology epoch, which the
// member learns in the same round trip that refreshed its liveness. A
// member without a client gets one from the heartbeat's address. Unknown members are
// rejected (404): admission is the warm-join path's job, never a side
// effect of gossip.
func (g *Gateway) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var m membership.Member
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&m); err != nil {
		http.Error(w, "bad heartbeat: "+err.Error(), http.StatusBadRequest)
		return
	}
	if m.Name == "" {
		http.Error(w, "heartbeat without a member name", http.StatusBadRequest)
		return
	}
	ack, recovered, err := g.roster.Heartbeat(m)
	if errors.Is(err, errUnknownShard) {
		http.Error(w, err.Error()+"; join with POST /api/v1/cluster/join", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if recovered {
		g.met.log.Info("cluster: shard recovered (heartbeat after down)", "shard", m.Name, "epoch", ack.Epoch)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ack)
}

// sweepMembership runs failure detection and fails routes closed for
// every member the sweep marks down: its route entries are dropped, so
// later requests for those sessions re-home by hash and read as
// expired (404) instead of timing out against a dead address. The
// member keeps its roster entry and client — down is a verdict it can
// appeal by heartbeating — but leaves the routing set the moment the
// roster marks it down.
func (g *Gateway) sweepMembership() {
	for _, ev := range g.roster.Sweep() {
		if ev.To != membership.StateDown {
			continue
		}
		g.topo.Lock()
		dropped := g.dropRoutes(ev.Name)
		g.topo.Unlock()
		g.met.log.Warn("cluster: shard down, routes failed closed",
			"shard", ev.Name, "routesDropped", dropped, "epoch", ev.Epoch)
	}
}

// warmShard streams every donor-resident engine into a joining shard.
// No donor (first member, or nothing resident anywhere) is not an
// error — there is nothing to be cold about.
func (g *Gateway) warmShard(sh *Shard) error {
	donor := g.pickDonor(sh.name)
	if donor == nil {
		return nil
	}
	var body datasetsDTO
	if err := donor.getJSON("/api/datasets", nil, &body); err != nil {
		return err
	}
	for _, row := range body.Datasets {
		if !row.Resident {
			continue
		}
		if err := g.pumpSnapshot(donor, sh, row.Name); err != nil {
			return err
		}
	}
	return nil
}

// pickDonor chooses the warm-join source: the first (sorted) routable,
// non-draining member other than the joiner. Sorted order makes the
// choice deterministic, which keeps warm-join behavior reproducible in
// tests and across gateways.
func (g *Gateway) pickDonor(exclude string) *Shard {
	for _, m := range g.roster.snapshot() {
		if m.Name != exclude && m.routable(true) {
			return m.shard
		}
	}
	return nil
}

// pumpSnapshot relays one engine snapshot donor → joiner without
// buffering it in the gateway: the donor's response body is the
// joiner's request body. Both legs ride the streaming client — an
// engine snapshot can outlive the bounded client's 30s allowance. Any
// failure on either leg (including the joiner's 409 on a fingerprint
// mismatch, which is what a truncated donor stream becomes) aborts the
// join before the newcomer is admitted.
func (g *Gateway) pumpSnapshot(donor, to *Shard, dataset string) error {
	started := time.Now()
	q := "?dataset=" + url.QueryEscape(dataset)
	res, err := donor.send(context.Background(), donor.streamer, http.MethodGet, "/internal/cluster/snapshot"+q, nil, nil)
	if err != nil {
		return fmt.Errorf("snapshot %s from %s: %w", dataset, donor.name, err)
	}
	if res.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		res.Body.Close()
		return fmt.Errorf("snapshot %s from %s: status %d: %s", dataset, donor.name, res.StatusCode, msg)
	}
	wres, err := to.send(context.Background(), to.streamer, http.MethodPost, "/internal/cluster/warm"+q,
		http.Header{"Content-Type": {"application/octet-stream"}}, res.Body)
	res.Body.Close()
	if err != nil {
		return fmt.Errorf("warming %s on %s: %w", dataset, to.name, err)
	}
	defer wres.Body.Close()
	if wres.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(wres.Body, 512))
		return fmt.Errorf("warming %s on %s: status %d: %s", dataset, to.name, wres.StatusCode, msg)
	}
	var result serve.WarmResult
	if err := json.NewDecoder(wres.Body).Decode(&result); err != nil {
		return fmt.Errorf("warming %s on %s: decoding result: %w", dataset, to.name, err)
	}
	g.met.warmBytes.Add(uint64(result.Bytes))
	g.met.warmSeconds.Observe(time.Since(started).Seconds())
	g.met.log.Info("cluster: warm join streamed engine",
		"dataset", dataset, "from", donor.name, "to", to.name,
		"bytes", result.Bytes, "engineVersion", result.EngineVersion,
		"alreadyResident", result.AlreadyResident,
		"ms", time.Since(started).Milliseconds())
	return nil
}
