// Package cluster shards VEXUS session serving across processes. The
// paper's exploration loop makes every session a long-lived, mutable
// conversation — the natural unit of distribution — and PR 4 made
// sessions fully replayable action logs, which makes them *cheap to
// move*: export the log, replay it on another shard, and the mutation
// counter (hence the `"<sid>.<mutations>"` ETag stream clients
// revalidate against) lands exactly where it left off.
//
// The layering follows the reactor/switch split of peer-routed
// systems: a Gateway owns routing and topology but no session state,
// and shards own sessions but know nothing of each other. Session ids
// map to shards by rendezvous hashing (hash.go), the gateway proxies
// the public session surface (/api/v1/sessions/{sid}/*, plus the
// page's two ?sid= SVGs) sticky-by-sid, and topology changes (Join,
// Drain) move exactly the sessions the hash reassigns via export →
// replay → delete, blocking traffic only per migrating session, never
// globally.
//
// Determinism contract: a migrated session is byte-identical to one
// that never moved provided every shard serves a bit-identical engine
// (the core.Build / store.BuildOrLoad contract — same dataset spec,
// any worker count, and a snapshot loads under the spec's own
// configuration) and the optimizer config is deterministic
// (greedy.Config.TimeLimit = 0, as for save/load replay). The
// equivalence tests pin this at workers 1, 2 and 8.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"time"

	"vexus/internal/membership"
	"vexus/internal/serve"
	"vexus/internal/telemetry"
)

// Gateway fronts a set of shards: it terminates the public HTTP
// surface, routes every session-scoped request to the owning shard,
// aggregates the ops endpoints across shards, and orchestrates
// replay-based migration when the shard set changes.
type Gateway struct {
	// topo serializes topology changes (Join/Drain) and the route
	// sweep: concurrent rebalances would compute owners against sets
	// mid-change.
	topo sync.Mutex

	// place fences session placement against drains: a create holds it
	// shared from the eligibility snapshot until the route is
	// recorded, and Drain holds it exclusively (briefly) when marking
	// a shard draining — so once the mark is visible, no in-flight
	// create can still land a session on the draining shard after its
	// migration sweep listed it.
	place sync.RWMutex

	// mu guards routes; it is never held across a proxied request, a
	// migration step or a roster call.
	mu     sync.RWMutex
	routes map[string]*route // sid → residency (gateway-observed)

	// ingestMu serializes dataset ingests through this gateway: one
	// batch reaches every shard, under one seq, before the next
	// starts, keeping the per-dataset seq ladder gap-free without
	// cross-shard coordination. It also guards nextSeq.
	ingestMu sync.Mutex
	// nextSeq is the per-dataset seq hint: the engine version every
	// shard agreed on after this gateway's last commit of that
	// dataset, so the next seq-less batch can go to every shard at
	// once. Each shard checks a pinned seq against its own version and
	// lineage, so a stale hint is refused, never committed; the gateway
	// then reruns the batch with the first shard assigning the seq.
	// Dropped on any failed ingest.
	nextSeq map[string]uint64

	stopOnce sync.Once
	stop     chan struct{}

	// roster is the one member table: each member's membership record
	// (state, last heartbeat), its client and its draining mark. The
	// epoch, routing eligibility, failure detection and the persisted
	// route table all read it. A request whose session already has a
	// route never touches it: the route holds the client.
	roster *roster
	// secret is the cluster shared secret; stamped onto secretless
	// shards at admission and required on /internal/cluster/* inbound.
	secret string
	// mintSID draws session ids for handleCreate (GatewayConfig.MintSID;
	// serve.NewSessionID by default).
	mintSID func() string

	// met is the gateway's telemetry bundle (never nil).
	met *gatewayMetrics
}

// GatewayConfig carries the gateway's observability wiring. The zero
// value is fully usable: a fresh private registry and slog.Default().
type GatewayConfig struct {
	// Telemetry receives the gateway's metric families. nil means a
	// fresh private registry (metrics still collected, exposed on the
	// gateway's /metrics).
	Telemetry *telemetry.Registry
	// Logger receives request/migration span records (Debug level).
	// nil means slog.Default().
	Logger *slog.Logger
	// Secret is the cluster shared secret: required (constant-time
	// compare) on every /internal/cluster/* request the gateway serves,
	// and attached to every hop it makes to a shard. "" disables the
	// check — single-trust-domain deployments and in-process tests.
	Secret string
	// RoutesPath persists the membership route table (epoch + roster)
	// atomically on every topology change; on restart the gateway
	// reloads it and resumes routing at the saved epoch without asking
	// any shard anything. "" keeps the table in memory only.
	RoutesPath string
	// SuspectAfter / DownAfter tune failure detection (zero = the
	// membership defaults, 6s / 20s).
	SuspectAfter time.Duration
	DownAfter    time.Duration
	// Dial materializes a Shard client for a member the gateway knows
	// only from the persisted roster, or that heartbeats while it has
	// none. nil means RemoteShard(name, addr), stamped with Secret;
	// returning nil leaves the member client-less (it stays on the
	// roster but cannot be routed to until a heartbeat brings a
	// dialable address). Tests use this to hand back in-process shards.
	Dial func(name, addr string) *Shard
	// Clock overrides the time source failure detection reads (nil =
	// time.Now). Deterministic harnesses (internal/loadsim) drive it
	// with a virtual tick clock so suspect→down transitions happen at
	// scripted ticks instead of wall-clock moments.
	Clock func() time.Time
	// MintSID overrides session-id minting on create (nil =
	// serve.NewSessionID, 128 bits of crypto/rand). Deterministic
	// harnesses supply sequenced ids so rendezvous placement — a pure
	// function of the sid — is reproducible run to run.
	MintSID func() string
	// ManualSweep disables the background route/membership sweeper
	// goroutine; the owner runs both passes explicitly through Sweep.
	// Combined with Clock this makes failure detection and route
	// reconciliation a deterministic function of the call schedule.
	ManualSweep bool
}

// route pins one session's residency. Its lock is the migration
// latch: requests hold it shared while proxying, a migration holds it
// exclusively across export/import/delete — so a client never
// observes the moving session at all, just a slightly slower request
// that lands on the new owner.
type route struct {
	mu    sync.RWMutex
	shard *Shard
}

// NewGatewayConfig assembles a gateway over the given shards (names
// must be unique) with the given telemetry, logging, membership and
// auth wiring; the zero GatewayConfig is the default wiring. The roster is the union of the static
// arguments and the persisted table at cfg.RoutesPath: reloaded
// members are re-dialed from their saved addresses (constructing a
// client only — no request leaves the gateway), so a restarted gateway
// routes at the saved epoch immediately.
func NewGatewayConfig(cfg GatewayConfig, shards ...*Shard) (*Gateway, error) {
	roster, err := openRoster(cfg)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		routes:  make(map[string]*route),
		nextSeq: make(map[string]uint64),
		stop:    make(chan struct{}),
		roster:  roster,
		secret:  cfg.Secret,
		mintSID: cfg.MintSID,
		met:     newGatewayMetrics(cfg.Telemetry, cfg.Logger),
	}
	if g.mintSID == nil {
		g.mintSID = serve.NewSessionID
	}
	// Topology and routing-table occupancy are read at scrape time —
	// both already live in the roster or under g.mu, so mirroring them
	// into gauges on every change would be a second source of truth.
	g.met.reg.GaugeFunc("vexus_gateway_shards", "Shards in the routing set.", func() float64 {
		return float64(len(g.Shards()))
	})
	g.met.reg.GaugeFunc("vexus_gateway_routes", "Sessions with a pinned route entry.", func() float64 {
		g.mu.RLock()
		defer g.mu.RUnlock()
		return float64(len(g.routes))
	})
	g.met.reg.GaugeFunc("vexus_cluster_epoch", "Topology epoch: advances on every routing-set change.", func() float64 {
		return float64(g.roster.Epoch())
	})
	g.met.reg.GaugeVecFunc("vexus_cluster_members", "Cluster members by liveness state.", "state", g.roster.StateCounts)

	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if seen[s.name] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", s.name)
		}
		seen[s.name] = true
		s.orSecret(cfg.Secret)
	}
	roster.SeedStatic(shards)
	if len(g.shardList()) == 0 {
		return nil, errors.New("cluster: a gateway needs at least one shard (static, or reloaded from -routes)")
	}
	// Routes for sessions that expire shard-side (TTL, LRU) and are
	// never requested again would otherwise accumulate forever; the
	// sweeper reconciles the table against shard residency. The
	// membership sweeper runs failure detection on its own, faster
	// clock — a fraction of the suspect horizon, so a silent shard is
	// noticed within one horizon, not one horizon plus a sweep period.
	if cfg.ManualSweep {
		return g, nil
	}
	memberSweep := roster.suspectAfter / 3
	if memberSweep < 200*time.Millisecond {
		memberSweep = 200 * time.Millisecond
	}
	go func() {
		routeT := time.NewTicker(routeSweepInterval)
		memberT := time.NewTicker(memberSweep)
		defer routeT.Stop()
		defer memberT.Stop()
		for {
			select {
			case <-routeT.C:
				g.sweepRoutes()
			case <-memberT.C:
				g.sweepMembership()
			case <-g.stop:
				return
			}
		}
	}()
	return g, nil
}

// Sweep runs both passes of the background sweeper once, in order:
// failure detection (which fails a down member's routes closed), then
// route reconciliation against shard residency. It is the manual
// entry point for gateways built with GatewayConfig.ManualSweep;
// deterministic harnesses tick it.
func (g *Gateway) Sweep() {
	g.sweepMembership()
	g.sweepRoutes()
}

// Close stops the gateway's background route sweeper (idempotent).
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
}

// routeSweepInterval paces the background route reconciliation; one
// listing call per shard per sweep, so frequent is cheap.
const routeSweepInterval = 5 * time.Minute

// sweepRoutes drops route entries whose session no longer lives on
// any shard (TTL expiry, LRU eviction, out-of-band deletion),
// returning how many it dropped. It holds the topology lock, so no
// migration runs mid-sweep; a session created while the sweep is
// listing may be dropped spuriously, which is harmless — its next
// request falls back to the rendezvous owner, which is exactly where
// creation placed it. Only routable members are listed: a down
// member's routes were dropped when it went down, and listing it would
// skip every sweep until it is removed.
func (g *Gateway) sweepRoutes() int {
	g.topo.Lock()
	defer g.topo.Unlock()
	live := make(map[string]bool)
	for _, m := range g.roster.snapshot() {
		if !m.routable(false) {
			continue
		}
		list, err := m.shard.sessions()
		if err != nil {
			// An unreachable shard hides its sessions; dropping their
			// routes would misroute once it recovers. Skip the sweep.
			return 0
		}
		for _, info := range list {
			live[info.Session] = true
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	dropped := 0
	for sid := range g.routes {
		if !live[sid] {
			delete(g.routes, sid)
			dropped++
		}
	}
	return dropped
}

// Routes returns the gateway's HTTP surface: the public API proxied
// sticky-by-sid, plus the cluster ops endpoints.
func (g *Gateway) Routes() http.Handler {
	mux := http.NewServeMux()
	// handle registers pattern behind the telemetry middleware, which
	// counts and times the request and mints (or adopts) the
	// X-Vexus-Trace id — set on the request header, so proxy hops that
	// forward r.Header carry it to the shard's own middleware for free.
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, g.met.http.Wrap(pattern, h))
	}
	handle("GET /", serve.Index)

	// Session lifecycle: creation picks the shard by hashing a
	// gateway-minted sid; deletion follows the sid and drops the route.
	handle("POST /api/v1/sessions", g.handleCreate)
	handle("DELETE /api/v1/sessions/{sid}", g.bySID)

	// Session-scoped traffic: proxied to the owner, verbatim. The SSE
	// diff stream has its own pass-through: it must not pin the
	// session's migration latch for the stream's lifetime.
	handle("GET /api/v1/sessions/{sid}/state", g.bySID)
	handle("GET /api/v1/sessions/{sid}/events", g.handleEvents)
	handle("POST /api/v1/sessions/{sid}/actions", g.bySID)
	handle("GET /api/v1/sessions/{sid}/groupviz.svg", g.bySID)
	handle("GET /api/v1/sessions/{sid}/focus.svg", g.bySID)

	// Live datasets: ingestion fans out to every shard at once under
	// one seq — the client's, the gateway's hint, or else the one the
	// first shard assigns (ingest.go).
	handle("POST /api/v1/datasets/{name}/ingest", g.handleIngest)

	// Membership: shards announce themselves here. Auth-gated like
	// every /internal/cluster/* surface — membership is how routing
	// decisions are made, so it is exactly what the shared secret must
	// protect.
	mux.Handle("POST /internal/cluster/heartbeat",
		g.met.http.Wrap("POST /internal/cluster/heartbeat",
			membership.Require(g.secret, http.HandlerFunc(g.handleHeartbeat))))

	// Ops: cross-shard aggregation and topology.
	handle("GET /api/sessions", g.handleSessions)
	handle("GET /api/datasets", g.handleDatasets)
	handle("GET /api/v1/cluster", g.handleClusterStatus)
	handle("POST /api/v1/cluster/drain", g.handleDrain)
	handle("POST /api/v1/cluster/join", g.handleJoin)
	handle("POST /api/v1/cluster/remove", g.handleRemove)

	// Observability surface. /metrics serves the gateway's own registry
	// uninstrumented (scrapes must not inflate request counts); the
	// per-shard cluster rollup rides on GET /api/v1/cluster.
	handle("GET /api/v1/healthz", g.handleHealthz)
	handle("GET /api/v1/readyz", g.handleReadyz)
	mux.Handle("GET /metrics", g.met.reg.Handler())
	return mux
}

// bySID proxies a /api/v1/sessions/{sid}/... request to the shard
// owning the session. {sid} is never empty: ServeMux redirects a path
// with an empty segment to its cleaned form.
func (g *Gateway) bySID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("sid")
	sh, release := g.acquire(id)
	defer release()
	if sh == nil {
		http.Error(w, "no shard available", http.StatusBadGateway)
		return
	}
	status := g.proxy(w, r, sh, r.URL.RequestURI())
	// A 404 means the shard no longer holds the session (TTL
	// expiry, LRU eviction, delete): drop any stale route eagerly.
	// 204 is the delete path's success. Routes of expired sessions
	// nobody asks about again are reclaimed by the sweeper.
	if status == http.StatusNotFound || status == http.StatusNoContent {
		g.dropRoute(id)
	}
}

// acquire resolves a session id to its shard, holding the session's
// route shared until release — which blocks a concurrent migration of
// this session, and blocks *on* one already in flight, so the proxied
// request always observes a fully settled residency. Sids with no
// route entry (sessions from before a gateway restart, or garbage)
// are pinned to their rendezvous owner *before* proxying: every
// sid-routed request holds the latch, so a drain can never export a
// trail while an un-latched mutation is in flight behind it. Garbage
// entries this creates are dropped by the 404 hook in bySID or, for
// never-again-requested sids, by the route sweeper.
func (g *Gateway) acquire(sid string) (*Shard, func()) {
	g.mu.RLock()
	rt := g.routes[sid]
	g.mu.RUnlock()
	if rt == nil {
		owner := g.roster.owner(sid, false)
		if owner == nil {
			return nil, func() {}
		}
		rt = g.routeFor(sid, owner)
	}

	// The latch-wait histogram measures exactly the stall a migration
	// of this session imposes on its own requests.
	waitStart := time.Now()
	rt.mu.RLock()
	g.met.latchWait.Observe(time.Since(waitStart).Seconds())
	return rt.shard, rt.mu.RUnlock
}

// traceHeader folds the request's trace id into header (which may be
// nil) for shard hops that assemble their own header set. proxy and
// the stream pass-through forward the client headers verbatim — the
// middleware already planted the trace there — so only the
// gateway-originated hops (create, ingest fan-out) need this.
func traceHeader(ctx context.Context, header http.Header) http.Header {
	id := telemetry.TraceID(ctx)
	if id == "" {
		return header
	}
	if header == nil {
		header = http.Header{}
	}
	header.Set(telemetry.TraceHeader, id)
	return header
}

// proxy forwards the request to the shard under the given path+query
// and copies the response back verbatim, returning the status (0 when
// the shard was unreachable).
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, sh *Shard, path string) int {
	res, err := sh.send(context.Background(), sh.client, r.Method, path, r.Header, r.Body)
	if err != nil {
		http.Error(w, "shard unreachable: "+err.Error(), http.StatusBadGateway)
		return 0
	}
	defer res.Body.Close()
	return copyResponse(w, res)
}

// copyResponse relays a shard response to the client. The body copy
// flushes after every write when the client connection supports
// it: for buffered JSON responses that costs one extra flush, and for
// streaming responses (the SSE diff stream) it is what makes events
// reach the client as they happen instead of sitting in the gateway's
// write buffer until the stream ends.
func copyResponse(w http.ResponseWriter, res *http.Response) int {
	for k, vs := range res.Header {
		w.Header()[k] = vs
	}
	w.WriteHeader(res.StatusCode)
	var dst io.Writer = w
	if f, ok := w.(http.Flusher); ok {
		dst = flushWriter{w: w, f: f}
	}
	_, _ = io.Copy(dst, res.Body)
	return res.StatusCode
}

// flushWriter flushes the client connection after every write, so each
// chunk a shard emits crosses the gateway immediately. io.Copy never
// sees a ReaderFrom through it, which is the point: the fast paths
// (sendfile, buffer reuse) are exactly the ones that hold data back.
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if n > 0 {
		fw.f.Flush()
	}
	return n, err
}

// handleEvents proxies the SSE diff stream. It differs from bySID in
// two ways that both exist because a stream outlives any request
// budget: the session's route latch is released as soon as the shard
// has accepted the stream (holding it shared for the stream's lifetime
// would block migration of that session forever), and the upstream
// request is issued through the shard's streaming client (no response
// timeout, unbuffered transport). The ordering makes the handoff
// airtight: send returns only after the shard has registered the
// subscriber and flushed response headers, so a migration that starts
// after release necessarily finds the subscriber attached and tears it
// down with a terminal `event: closed` reason "migrated" — the client
// reconnects here and lands on the new owner with Last-Event-ID
// resume.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("sid")
	sh, release := g.acquire(sid)
	if sh == nil {
		release()
		http.Error(w, "no shard available", http.StatusBadGateway)
		return
	}
	res, err := sh.send(r.Context(), sh.streamer, http.MethodGet, r.URL.RequestURI(), r.Header, nil)
	release()
	if err != nil {
		http.Error(w, "shard unreachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer res.Body.Close()
	if copyResponse(w, res) == http.StatusNotFound {
		g.dropRoute(sid)
	}
}

// handleCreate places a new session: mint the sid, hash it to an
// eligible shard, create there under that id, and record the route.
// Rendezvous placement means the session lands exactly where every
// later hash lookup will point.
func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	// The placement read-lock pins the topology from the eligibility
	// snapshot until the route is recorded: Drain marks a shard
	// draining under the write lock, so once that mark is visible no
	// create still in flight can land a session after the drain's
	// migration sweep has listed the shard.
	g.place.RLock()
	defer g.place.RUnlock()
	sid := g.mintSID()
	sh := g.roster.owner(sid, true)
	if sh == nil {
		http.Error(w, "no shard accepting sessions", http.StatusServiceUnavailable)
		return
	}
	q := url.Values{"sid": {sid}}
	if ds := r.FormValue("dataset"); ds != "" {
		q.Set("dataset", ds)
	}
	res, err := sh.send(context.Background(), sh.client, http.MethodPost, "/internal/cluster/sessions?"+q.Encode(), traceHeader(r.Context(), nil), nil)
	if err != nil {
		http.Error(w, "shard unreachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusCreated {
		g.mu.Lock()
		g.routes[sid] = &route{shard: sh}
		g.mu.Unlock()
	}
	copyResponse(w, res)
}

// dropRoute forgets a session's residency (deletion, expiry).
func (g *Gateway) dropRoute(sid string) {
	g.mu.Lock()
	delete(g.routes, sid)
	g.mu.Unlock()
}

// routeFor returns the session's route, creating it pinned to the
// given shard when absent. Caller must not hold g.mu.
func (g *Gateway) routeFor(sid string, shard *Shard) *route {
	g.mu.Lock()
	defer g.mu.Unlock()
	rt := g.routes[sid]
	if rt == nil {
		rt = &route{shard: shard}
		g.routes[sid] = rt
	}
	return rt
}

// migrate moves one session from → to by replaying its action log:
// export the trail, import (replay) it on the new owner under the
// same sid, then delete the original. The route lock is held
// exclusively throughout, so concurrent requests for this session
// wait and then land on the new owner; other sessions are untouched.
// Failure order is safe at every step: until the delete succeeds the
// source still serves the session, and a half-imported copy deletes
// itself (shard-side) on replay divergence.
func (g *Gateway) migrate(sid string, from, to *Shard) error {
	rt := g.routeFor(sid, from)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.shard.name != from.name {
		return nil // somebody already moved it (stale listing)
	}

	// One trace id spans the whole migration: both shards' middleware
	// adopt it, so their export and import span logs — and the
	// source-side delete — all carry the same id, and one grep
	// reconstructs the hop sequence across process logs.
	trace := telemetry.NewTraceID()
	started := time.Now()

	var doc serve.SessionExport
	if err := from.getJSON("/internal/cluster/sessions/"+sid+"/export",
		http.Header{telemetry.TraceHeader: {trace}}, &doc); err != nil {
		return fmt.Errorf("export %s: %w", sid, err)
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("export %s: %w", sid, err)
	}
	res, err := to.send(context.Background(), to.client, http.MethodPost, "/internal/cluster/sessions/"+sid+"/import",
		http.Header{"Content-Type": {"application/json"}, telemetry.TraceHeader: {trace}}, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("import %s: %w", sid, err)
	}
	msg, _ := io.ReadAll(io.LimitReader(res.Body, 512))
	res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		return fmt.Errorf("import %s on %s: status %d: %s", sid, to.name, res.StatusCode, msg)
	}

	rt.shard = to
	g.met.migrations.Inc()
	g.met.migrationSeconds.Observe(time.Since(started).Seconds())
	g.met.log.Debug("migration",
		"span", "migrate", "trace", trace,
		"sid", sid, "from", from.name, "to", to.name,
		"mutations", doc.Mutations, "ms", time.Since(started).Milliseconds())
	// The source copy is now shadow state; delete it. A failure here
	// leaks a session on the old shard (its TTL sweeper will collect
	// it) but cannot misroute: the route already points at the new
	// owner, and the hash will too once the topology change completes.
	// reason=migrated turns the teardown of any stream still attached
	// to the source into a reconnect signal instead of a final close:
	// the client comes back through the gateway, which now routes it to
	// the new owner, whose replayed ring serves the Last-Event-ID
	// resume.
	if res, err := from.send(context.Background(), from.client, http.MethodDelete, "/api/v1/sessions/"+sid+"?reason=migrated",
		http.Header{telemetry.TraceHeader: {trace}}, nil); err == nil {
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}
	return nil
}

// Drain migrates every session off the named shard and removes it
// from the cluster, returning how many sessions moved. The shard
// stops receiving new sessions immediately; existing ones move one at
// a time, each under its own route lock. On a migration error the
// shard stays in the cluster (drain is resumable — call it again).
// Drain refuses up front when no other member would accept new
// sessions, and for a member without a client (Remove it instead).
func (g *Gateway) Drain(name string) (int, error) {
	g.topo.Lock()
	defer g.topo.Unlock()

	sh, err := g.roster.markDraining(name)
	if err != nil {
		return 0, err
	}

	// Placement barrier: creates hold g.place shared from eligibility
	// check to completion, so cycling the write lock here guarantees
	// every create that could still target the shard (it snapshotted
	// eligibility before the draining mark) has finished — the listing
	// below is therefore complete, and nothing lands later.
	g.place.Lock()
	g.place.Unlock() //nolint:staticcheck // empty critical section is the barrier

	moved, err := g.migrateAll(sh)
	if err == nil {
		err = g.roster.Remove(name)
	}
	if err != nil {
		g.roster.undrain(name)
	}
	return moved, err
}

// migrateAll moves every session off sh onto its rendezvous owner
// among the members accepting new sessions, returning how many moved.
func (g *Gateway) migrateAll(sh *Shard) (int, error) {
	list, err := sh.sessions()
	if err != nil {
		return 0, err
	}
	moved := 0
	for _, info := range list {
		to := g.roster.owner(info.Session, true)
		if to == nil {
			return moved, fmt.Errorf("cluster: no target shard for %s", info.Session)
		}
		if err := g.migrate(info.Session, sh, to); err != nil {
			return moved, err
		}
		moved++
	}
	return moved, nil
}

// Remove force-removes a shard from routing WITHOUT migrating its
// sessions — the escape hatch for a dead member. Drain must list and
// export the shard's sessions, so it can never succeed against an
// unreachable process; without Remove, a shard joined with a bad
// address (or one that died) would keep winning ~1/N of rendezvous
// placements forever, failing every one with 502. Any rostered member
// can be removed, client or not, as long as another member still
// accepts new sessions. Sessions resident on the removed shard are
// abandoned (their routes are dropped, so later requests re-home by
// hash and see 404 — exactly a TTL expiry from the client's
// perspective); a reachable shard should be Drained, not Removed.
// Returns how many routes were dropped.
func (g *Gateway) Remove(name string) (int, error) {
	g.topo.Lock()
	defer g.topo.Unlock()
	if err := g.roster.Remove(name); err != nil {
		return 0, err
	}
	return g.dropRoutes(name), nil
}

// dropRoutes drops every route pinned to the named shard, returning how
// many: the fail-closed step of both Remove and failure detection.
func (g *Gateway) dropRoutes(name string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	dropped := 0
	for sid, rt := range g.routes {
		rt.mu.RLock()
		pinned := rt.shard.name == name
		rt.mu.RUnlock()
		if pinned {
			delete(g.routes, sid)
			dropped++
		}
	}
	return dropped
}

// Join warm-joins a shard and rebalances. Before the newcomer can win
// a single placement it is *warmed*: every engine resident on a donor
// member is streamed to it through the snapshot codec (donor GET
// /internal/cluster/snapshot → joiner POST /internal/cluster/warm),
// and the joiner installs a stream only after verifying its chain
// fingerprint against the spec it builds locally — so a truncated or
// corrupted transfer aborts the join and the newcomer never enters the
// ring cold. Then the roster admits it (epoch bump) and every live
// session whose rendezvous owner under the enlarged shard set is the
// newcomer migrates onto it (rendezvous hashing moves no other
// session). Returns how many sessions moved.
func (g *Gateway) Join(sh *Shard) (int, error) {
	g.topo.Lock()
	defer g.topo.Unlock()
	// Holding the ingest lock closes the version race: without it an
	// ingest fan-out could advance every member one engine version
	// while the donor's snapshot of the previous version is mid-stream,
	// admitting a joiner one generation behind the cluster.
	g.ingestMu.Lock()
	defer g.ingestMu.Unlock()

	// Only routable members hold sessions to rebalance: a down
	// member's routes are already dropped, and listing its sessions
	// would fail the join for every member sorted after it.
	var others []*Shard
	for _, m := range g.roster.snapshot() {
		if m.Name == sh.name {
			return 0, fmt.Errorf("cluster: shard %q already present", sh.name)
		}
		if m.routable(false) {
			others = append(others, m.shard)
		}
	}
	sh.orSecret(g.secret)
	if err := g.warmShard(sh); err != nil {
		return 0, fmt.Errorf("cluster: warm join %q: %w", sh.name, err)
	}
	if err := g.roster.Join(sh); err != nil {
		return 0, err
	}
	names := g.Shards()

	moved := 0
	for _, from := range others {
		list, err := from.sessions()
		if err != nil {
			return moved, err
		}
		for _, info := range list {
			if Owner(names, info.Session) != sh.name {
				continue
			}
			if err := g.migrate(info.Session, from, sh); err != nil {
				return moved, err
			}
			moved++
		}
	}
	return moved, nil
}

// Shards lists the routing set — members with a client that are not
// marked down, draining ones included — by name, sorted.
func (g *Gateway) Shards() []string {
	var names []string
	for _, m := range g.roster.snapshot() {
		if m.routable(false) {
			names = append(names, m.Name)
		}
	}
	return names
}
