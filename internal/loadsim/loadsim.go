// Package loadsim is the cluster-scale workload and fault-injection
// harness: a deterministic set of analysts driving a multi-shard
// in-process cluster (gateway + cluster.LocalShard workers) through
// the v1 action API and the SSE diff stream under a scripted chaos
// schedule, counting every fail-closed violation. It measures no
// latency: serving speed is wallbench's job.
//
// Every analyst is real. A per-user rng.Derive stream decides, tick by
// tick, whether the analyst acts (a Zipf rank-frequency arrival rate)
// and which operation they pick (explore/backtrack/focus+brush); the
// analyst creates a real session through the gateway, POSTs real
// action batches (?full=1), and a deterministic subset holds real SSE
// subscriptions — so routing, migration, ETag continuity and stream
// teardown are exercised against the real stack.
//
// Determinism contract: with the same Config (Workers excluded), the
// Summary is bit-identical at any worker count. Everything the Summary
// reports is derived from per-user rng streams drawn in slot-written
// parallel.ForEach phases and accumulated in a fixed sequential order;
// wall-clock time never enters it. The cluster runs on an injected
// virtual clock (one tick = one virtual second), the gateway sweeps
// membership only when told (GatewayConfig.ManualSweep), session ids
// are minted by the harness, and SSE queues are sized so no subscriber
// is ever dropped to a resync by backpressure.
package loadsim

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"vexus/internal/cluster"
	"vexus/internal/greedy"
	"vexus/internal/parallel"
	"vexus/internal/rng"
	"vexus/internal/serve"
	"vexus/internal/telemetry"
)

// loadsimUserStream is the rng.Derive stream family base for per-user
// streams — disjoint from the internal/simulate families (1..3 << 40).
const loadsimUserStream uint64 = 9 << 40

// Fixed workload and detector shape. Arrival rates follow a Zipf
// rank-frequency curve (exponent zipfS) clamped to [minRate, peakRate]
// act probability per tick; failure detection marks a silent shard
// suspect after suspectTicks and down after downTicks virtual seconds;
// every sseEvery-th analyst holds a diff-stream subscription.
const (
	zipfS        = 1.1
	peakRate     = 0.9
	minRate      = 0.01
	suspectTicks = 3
	downTicks    = 6
	sseEvery     = 4
)

// Config parameterizes one load/chaos run. The zero value is not
// runnable; Run applies the documented defaults to zero fields.
type Config struct {
	// Live is how many analysts drive real sessions through the
	// gateway (default 64). User index 0 is the hottest analyst
	// (Zipf-style rank-frequency arrival rates).
	Live int
	// Shards is the cluster size (default 3); shards are named
	// "s0".."s<n-1>".
	Shards int
	// Ticks is the virtual duration (default 120; one tick = 1s).
	Ticks int
	// Workers is the parallel.ForEach worker count for the per-tick
	// analyst phase (0 = NumCPU). Not part of the Summary: results
	// are bit-identical at any worker count.
	Workers int
	// Seed is the master seed; per-user streams derive from it.
	Seed uint64
	// Chaos is the fault schedule: "tick:op[:target]" comma-separated
	// (see ParseSchedule), "default" for DefaultSchedule(Shards,
	// Ticks), "" for a fault-free run.
	Chaos string
	// DatasetN / SpareN size the main and spare synthetic datasets
	// (defaults 240 / 96). The spare exists so the evict chaos op can
	// force the catalog's resident-engine LRU to evict the main engine
	// under live sessions.
	DatasetN int
	SpareN   int
	// Logger receives cluster/serve logs (nil = discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Live <= 0 {
		c.Live = 64
	}
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.Ticks <= 0 {
		c.Ticks = 120
	}
	if c.DatasetN <= 0 {
		c.DatasetN = 240
	}
	if c.SpareN <= 0 {
		c.SpareN = 96
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
	}
	return c
}

// vclock is the virtual time source the whole cluster runs on: a fixed
// base instant advanced one second per tick. Atomic because phase-A
// workers and SSE goroutines may read it while the tick loop advances.
type vclock struct {
	base time.Time
	tick atomic.Int64
}

func newVclock() *vclock {
	return &vclock{base: time.Unix(1_700_000_000, 0).UTC()}
}

func (c *vclock) now() time.Time {
	return c.base.Add(time.Duration(c.tick.Load()) * time.Second)
}

// Run executes one load/chaos simulation and returns its Summary.
func Run(cfg Config) (*Summary, error) {
	cfg = cfg.withDefaults()
	var schedule []ChaosOp
	var err error
	switch cfg.Chaos {
	case "":
	case "default":
		schedule, err = ParseSchedule(DefaultSchedule(cfg.Shards, cfg.Ticks))
	default:
		schedule, err = ParseSchedule(cfg.Chaos)
	}
	if err != nil {
		return nil, err
	}
	h, err := newHarness(cfg, schedule)
	if err != nil {
		return nil, err
	}
	defer h.teardown()

	for t := 0; t < cfg.Ticks; t++ {
		h.clock.tick.Store(int64(t))
		h.applyChaos(t)
		h.heartbeats()
		h.gw.Sweep()
		h.syncRing()
		h.checkEpoch()
		h.phaseA()
		h.phaseB()
	}
	h.finalAudit()
	return h.summary(), nil
}

// harness holds the cluster under test plus every accumulator the
// Summary is assembled from. All mutation outside phase A happens on
// the tick loop goroutine, in fixed order.
type harness struct {
	cfg      Config
	clock    *vclock
	schedule []ChaosOp
	tmpDir   string

	nodes map[string]*shardNode
	names []string // every shard ever created, sorted
	gwc   *gwClient
	gw    *cluster.Gateway

	// mintNext is the sid handed to GatewayConfig.MintSID; creates are
	// driven sequentially from phase B and chaos ops only.
	mintNext string

	ring    map[string]bool // routable set, synced from gw.Shards()
	ringLst []string
	tick    int

	prevEpoch    uint64
	prevRoster   []string
	prevRoutable []string

	users    []user
	slots    []turn
	streams  []*sseStream
	deadSids []string

	// Accumulators (phase B + chaos + audit; sequential order only).
	liveCreates     int
	createRetries   int
	unavailableLive int
	lost            int
	lostByCause     map[string]int
	badBatches      int
	otherErrors     int

	misrouted       int
	etagBreaks      int
	epochViolations int
	chaosErrors     int
	chaosApplied    []string
	evictRounds     int

	restarts              int
	restartEpochPreserved bool
	restartLost           int

	drainMovedReal   int
	drainMovedLive   int
	replayedMut      uint64
	sseStarted       int
	sseFailed        int
	auditedOK        int
	auditFailures    int
	failOpenSessions int
}

const (
	causeFailure  = "failure"
	causeEviction = "eviction"
)

func newHarness(cfg Config, schedule []ChaosOp) (*harness, error) {
	h := &harness{
		cfg:                   cfg,
		clock:                 newVclock(),
		schedule:              schedule,
		nodes:                 make(map[string]*shardNode, cfg.Shards),
		gwc:                   &gwClient{},
		ring:                  make(map[string]bool),
		lostByCause:           map[string]int{causeFailure: 0, causeEviction: 0},
		restartEpochPreserved: true,
	}
	if err := h.validateSchedule(); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "loadsim-*")
	if err != nil {
		return nil, err
	}
	h.tmpDir = tmp

	for i := 0; i < cfg.Shards; i++ {
		name := fmt.Sprintf("s%d", i)
		node, err := h.newShard(name)
		if err != nil {
			h.teardown()
			return nil, err
		}
		h.nodes[name] = node
		h.names = append(h.names, name)
	}
	gw, err := h.newGateway()
	if err != nil {
		h.teardown()
		return nil, err
	}
	h.gw = gw
	h.gwc.swap(gw.Routes())
	h.syncRing()
	h.prevEpoch, h.prevRoster, h.prevRoutable = h.topologySnapshot()

	h.initPopulation()
	return h, nil
}

// initPopulation derives every analyst's rng stream and arrival rate.
func (h *harness) initPopulation() {
	cfg := h.cfg
	h.users = make([]user, cfg.Live)
	h.slots = make([]turn, cfg.Live)
	for i := range h.users {
		u := &h.users[i]
		u.idx = i
		u.r = rng.Derive(cfg.Seed, loadsimUserStream|uint64(i))
		rate := peakRate / powf(float64(i+1), zipfS)
		if rate < minRate {
			rate = minRate
		}
		u.rate = rate
		u.pendingCreate = true
	}
}

// powf is x^y for the rank-frequency curve; one call site keeps the
// float determinism surface auditable (math.Pow is deterministic for
// these finite positive inputs).
func powf(x, y float64) float64 {
	return math.Pow(x, y)
}

// newShard builds one serve.Server shard wrapped in its chaos handler.
func (h *harness) newShard(name string) (*shardNode, error) {
	cfg := h.cfg
	scfg := serve.DefaultConfig()
	scfg.ShardAPI = true
	scfg.SessionTTL = 0 // no TTL sweeper goroutine: recency is virtual-clocked
	scfg.MaxSessions = 0
	scfg.StreamQueue = 4*cfg.Ticks + 64 // never drop a subscriber to resync
	scfg.StreamReplay = 64
	scfg.Logger = cfg.Logger
	scfg.Clock = h.clock.now
	reg := telemetry.NewRegistry()
	scfg.Telemetry = reg

	gcfg := greedy.DefaultConfig()
	gcfg.TimeLimit = 0 // determinism precondition (replay/migration fidelity)

	specs := map[string]serve.DatasetSpec{
		"main":  {Dataset: "dbauthors", N: cfg.DatasetN, Seed: 7},
		"spare": {Dataset: "dbauthors", N: cfg.SpareN, Seed: 11},
	}
	maxResident := 0
	if h.scheduleHas("evict") {
		maxResident = 1
	}
	cat, err := serve.NewCatalog("", specs, "main", gcfg, scfg, cfg.Workers, maxResident)
	if err != nil {
		return nil, err
	}
	srv := serve.NewCatalogServer(cat)
	return &shardNode{
		name:  name,
		srv:   srv,
		chaos: newChaosHandler(srv.Routes()),
		telem: reg,
	}, nil
}

// newGateway assembles (or re-assembles, for the restart op) the
// gateway over every non-drained shard's chaos handler, against the
// durable route table in the harness temp dir.
func (h *harness) newGateway() (*cluster.Gateway, error) {
	var statics []*cluster.Shard
	for _, name := range h.names {
		n := h.nodes[name]
		if n.drained {
			continue
		}
		statics = append(statics, cluster.LocalShard(name, n.chaos))
	}
	return cluster.NewGatewayConfig(cluster.GatewayConfig{
		Logger:       h.cfg.Logger,
		RoutesPath:   filepath.Join(h.tmpDir, "routes.json"),
		SuspectAfter: suspectTicks * time.Second,
		DownAfter:    downTicks * time.Second,
		Clock:        h.clock.now,
		MintSID:      func() string { return h.mintNext },
		ManualSweep:  true,
		Dial: func(name, _ string) *cluster.Shard {
			if n := h.nodes[name]; n != nil && !n.drained {
				return cluster.LocalShard(name, n.chaos)
			}
			return nil
		},
	}, statics...)
}

// syncRing mirrors the gateway's routable shard set into the harness.
func (h *harness) syncRing() {
	h.ringLst = h.gw.Shards()
	for k := range h.ring {
		delete(h.ring, k)
	}
	for _, n := range h.ringLst {
		h.ring[n] = true
	}
}

func (h *harness) shardAlive(name string) bool {
	n := h.nodes[name]
	return n != nil && !n.killed && !n.partitioned && !n.drained
}

// topologySnapshot reads (epoch, roster names, routable names) from the
// membership directory, both lists sorted.
func (h *harness) topologySnapshot() (uint64, []string, []string) {
	ms := h.gw.Members()
	roster := make([]string, 0, len(ms))
	routable := make([]string, 0, len(ms))
	for _, m := range ms {
		roster = append(roster, m.Name)
		if m.State != "down" {
			routable = append(routable, m.Name)
		}
	}
	return h.gw.Epoch(), roster, routable
}

// checkEpoch enforces the membership contract: the epoch advances on
// every routing-set (or roster) change and ONLY then. Violations in
// either direction are counted; a correct cluster reports zero.
func (h *harness) checkEpoch() {
	epoch, roster, routable := h.topologySnapshot()
	rosterSame := slices.Equal(roster, h.prevRoster)
	routableSame := slices.Equal(routable, h.prevRoutable)
	if epoch != h.prevEpoch && rosterSame && routableSame {
		h.epochViolations++ // bump without any topology change
	}
	if epoch == h.prevEpoch && (!rosterSame || !routableSame) {
		h.epochViolations++ // topology change without a bump
	}
	h.prevEpoch, h.prevRoster, h.prevRoutable = epoch, roster, routable
}

// teardown releases the cluster (idempotent; safe on a half-built
// harness).
func (h *harness) teardown() {
	for _, st := range h.streams {
		st.stop()
	}
	if h.gw != nil {
		h.gw.Close()
	}
	for _, n := range h.nodes {
		if n.srv != nil {
			n.srv.Close()
		}
	}
	if h.tmpDir != "" {
		os.RemoveAll(h.tmpDir)
	}
}

// phaseA draws every analyst's tick in parallel: one due draw per user
// per tick, then the op and operand draws and the real HTTP exchange
// for due users with a session. Workers write only their own slot
// (h.slots[i]) and their own user's rng; all shared state (gateway,
// shards) is internally locked and order-independent. No Summary
// accumulator moves here.
func (h *harness) phaseA() {
	parallel.ForEach(len(h.users), h.cfg.Workers, func(_, i int) {
		u := &h.users[i]
		tn := &h.slots[i]
		*tn = turn{}
		if u.r.Float64() >= u.rate {
			return
		}
		tn.op = u.r.WeightedChoice(opWeights)
		if !u.alive || u.paused {
			return
		}
		h.liveAction(u, tn)
	})
}

// phaseB folds the tick's slots into harness state sequentially in
// user-index order: exchange bookkeeping (ETag continuity, misroute
// and loss detection), then session (re)creation.
func (h *harness) phaseB() {
	for i := range h.users {
		u := &h.users[i]
		if h.slots[i].did {
			h.applyLiveResult(u, &h.slots[i])
		}
		if u.pendingCreate && !u.paused && len(h.ringLst) > 0 {
			h.createUser(u)
		}
	}
}

// loseUser marks a session lost fail-closed: the analyst will recreate
// from scratch next tick. Lost sids are remembered so the final audit
// can prove they stay dead.
func (h *harness) loseUser(u *user, cause string) {
	if u.sid != "" {
		h.deadSids = append(h.deadSids, u.sid)
	}
	u.alive = false
	u.pendingCreate = true
	u.sid, u.owner = "", ""
	u.mut = 0
	u.shown = nil
	u.histLen = 0
	h.lost++
	h.lostByCause[cause]++
}
