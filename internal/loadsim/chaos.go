package loadsim

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"vexus/internal/cluster"
)

// ChaosOp is one scheduled fault: at virtual tick Tick, apply Op to
// Target (gateway-wide ops leave Target empty).
type ChaosOp struct {
	Tick   int
	Op     string
	Target string
}

// The fault vocabulary. kill closes a shard hard (server down, SSE
// severed, wire 503s); partition makes it unreachable but leaves it
// running until heal reconnects it; drain migrates its sessions off
// through the gateway; restart bounces the gateway against the durable
// route table; evict forces engine eviction on a shard by creating
// sessions on the spare dataset until the catalog LRU drops "main".
var chaosOps = map[string]bool{
	"kill":      true,
	"partition": true,
	"heal":      true,
	"drain":     true,
	"restart":   true,
	"evict":     true,
}

var targetlessOps = map[string]bool{
	"restart": true,
	"evict":   true,
}

// ParseSchedule parses "tick:op[:target]" comma-separated entries,
// e.g. "15:kill:s1,40:restart,90:evict". Entries are returned sorted
// by tick (stable for same-tick entries).
func ParseSchedule(s string) ([]ChaosOp, error) {
	var ops []ChaosOp
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		parts := strings.Split(ent, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("loadsim: bad chaos entry %q (want tick:op[:target])", ent)
		}
		tick, err := strconv.Atoi(parts[0])
		if err != nil || tick < 0 {
			return nil, fmt.Errorf("loadsim: bad chaos tick in %q", ent)
		}
		op := parts[1]
		if !chaosOps[op] {
			return nil, fmt.Errorf("loadsim: unknown chaos op %q in %q", op, ent)
		}
		var target string
		if len(parts) == 3 {
			target = parts[2]
		}
		if target == "" && !targetlessOps[op] {
			return nil, fmt.Errorf("loadsim: chaos op %q needs a target in %q", op, ent)
		}
		ops = append(ops, ChaosOp{Tick: tick, Op: op, Target: target})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Tick < ops[j].Tick })
	return ops, nil
}

// DefaultSchedule lays one representative fault of each kind across the
// run, scaled to the cluster size: kill a shard early, bounce the
// gateway while the cluster is degraded, partition-and-heal another
// shard, drain a third, then force an engine eviction near the end.
// The restart lands before the partition so "zero sessions lost across
// restart" stays assertable.
func DefaultSchedule(shards, ticks int) string {
	at := func(f float64) int {
		t := int(f * float64(ticks))
		if t < 1 {
			t = 1
		}
		if t >= ticks {
			t = ticks - 1
		}
		return t
	}
	var ents []string
	if shards >= 2 {
		ents = append(ents, fmt.Sprintf("%d:kill:s1", at(0.15)))
	}
	ents = append(ents, fmt.Sprintf("%d:restart", at(0.35)))
	if shards >= 3 {
		ents = append(ents,
			fmt.Sprintf("%d:partition:s2", at(0.45)),
			fmt.Sprintf("%d:heal:s2", at(0.65)),
			fmt.Sprintf("%d:drain:s%d", at(0.80), shards-1),
		)
	}
	ents = append(ents, fmt.Sprintf("%d:evict", at(0.90)))
	return strings.Join(ents, ",")
}

// validateSchedule checks every targeted op names a shard that exists.
func (h *harness) validateSchedule() error {
	for _, op := range h.schedule {
		if op.Target == "" {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimPrefix(op.Target, "s"))
		if err != nil || !strings.HasPrefix(op.Target, "s") || idx < 0 || idx >= h.cfg.Shards {
			return fmt.Errorf("loadsim: chaos target %q outside cluster s0..s%d", op.Target, h.cfg.Shards-1)
		}
	}
	return nil
}

func (h *harness) scheduleHas(op string) bool {
	for _, o := range h.schedule {
		if o.Op == op {
			return true
		}
	}
	return false
}

// applyChaos fires every scheduled op due at tick t. Streams are
// quiesced first so teardown frames never race in-flight diffs.
func (h *harness) applyChaos(t int) {
	for _, op := range h.schedule {
		if op.Tick != t {
			continue
		}
		h.quiesceStreams()
		if err := h.applyOp(op); err != nil {
			h.chaosErrors++
			h.chaosApplied = append(h.chaosApplied, fmt.Sprintf("tick %d: %s %s FAILED: %v", t, op.Op, op.Target, err))
			continue
		}
		h.chaosApplied = append(h.chaosApplied, strings.TrimSpace(fmt.Sprintf("tick %d: %s %s", t, op.Op, op.Target)))
	}
}

func (h *harness) applyOp(op ChaosOp) error {
	switch op.Op {
	case "kill":
		return h.killShard(op.Target)
	case "partition":
		return h.partitionShard(op.Target, true)
	case "heal":
		return h.partitionShard(op.Target, false)
	case "drain":
		return h.drainShard(op.Target)
	case "restart":
		return h.restartGateway()
	case "evict":
		return h.forceEvict()
	}
	return fmt.Errorf("loadsim: unknown chaos op %q", op.Op)
}

// killShard takes a shard down hard: the wire starts refusing (503)
// and the server closes, which tears every SSE stream on it down with
// reason "server closing". Sessions are NOT proactively lost here —
// analysts discover the loss through 503s and, once the failure
// detector marks the member down and drops its routes, 404s; that lag
// is part of what the run measures.
func (h *harness) killShard(name string) error {
	n := h.nodes[name]
	if n == nil || n.killed {
		return fmt.Errorf("loadsim: kill: no live shard %q", name)
	}
	n.killed = true
	n.chaos.setDead(true)
	n.srv.Close()
	return nil
}

// partitionShard cuts (or heals) the wire to a running shard. Analysts
// homed there pause while partitioned — the client-side backoff — and
// resume on heal with their sessions intact, which the ETag continuity
// checks then verify.
func (h *harness) partitionShard(name string, cut bool) error {
	n := h.nodes[name]
	if n == nil || n.killed || n.drained {
		return fmt.Errorf("loadsim: partition: no live shard %q", name)
	}
	if n.partitioned == cut {
		return fmt.Errorf("loadsim: partition: shard %q already in state", name)
	}
	n.partitioned = cut
	n.chaos.setDead(cut)
	for i := range h.users {
		u := &h.users[i]
		if u.alive && u.owner == name {
			u.paused = cut
		}
	}
	return nil
}

// drainShard migrates every session off a shard through the gateway
// and removes it from the ring. Analysts keep their sid and state
// (migration replays the trail).
func (h *harness) drainShard(name string) error {
	n := h.nodes[name]
	if n == nil || n.killed || n.partitioned || n.drained {
		return fmt.Errorf("loadsim: drain: shard %q not drainable", name)
	}
	for i := range h.users {
		u := &h.users[i]
		if u.alive && u.owner == name {
			h.replayedMut += u.mut
		}
	}
	moved, err := h.gw.Drain(name)
	if err != nil {
		return err
	}
	h.drainMovedReal += moved
	n.drained = true
	h.syncRing()
	for i := range h.users {
		u := &h.users[i]
		if !u.alive || u.owner != name {
			continue
		}
		if len(h.ringLst) == 0 {
			h.loseUser(u, causeFailure)
			continue
		}
		u.owner = cluster.Owner(h.ringLst, u.sid)
		h.drainMovedLive++
		// Migration closes the old stream ("migrated"); reattach on the
		// new owner so delivery continues from the current state.
		if u.sse != nil {
			u.sse.stop()
			h.subscribe(u)
		}
	}
	return nil
}

// forceEvict makes the catalog's resident-engine cap (1 when an evict
// op is scheduled) evict the "main" engine on every routable shard by
// landing a spare-dataset session on each. Sessions on the evicted
// engine die server-side ("dataset evicted" on their streams); the
// harness loses those analysts immediately and the final audit proves
// the sids stay dead.
func (h *harness) forceEvict() error {
	h.syncRing()
	covered := make(map[string]bool)
	evicted := make(map[string]bool)
	attempts := 0
	for k := 0; len(covered) < len(h.ringLst) && attempts < 64*len(h.ringLst)+64; k++ {
		attempts++
		sid := fmt.Sprintf("spare.g%d.%d", h.evictRounds, k)
		owner := cluster.Owner(h.ringLst, sid)
		if covered[owner] || !h.shardAlive(owner) {
			covered[owner] = covered[owner] || !h.shardAlive(owner)
			continue
		}
		h.mintNext = sid
		res := h.gwc.do(http.MethodPost, "/api/v1/sessions?dataset=spare", nil, "")
		drainBody(res)
		if res.StatusCode == http.StatusCreated {
			covered[owner] = true
			evicted[owner] = true
		}
	}
	h.evictRounds++
	for i := range h.users {
		u := &h.users[i]
		if u.alive && evicted[u.owner] {
			h.loseUser(u, causeEviction)
		}
	}
	if len(evicted) == 0 {
		return fmt.Errorf("loadsim: evict: no shard evicted (%d attempts)", attempts)
	}
	return nil
}
