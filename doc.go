// Package vexus is a from-scratch Go implementation of VEXUS
// ("Exploration of User Groups in VEXUS", ICDE 2018): an interactive
// framework for exploring user data through automatically discovered
// user groups.
//
// The public surface lives under internal/ packages wired together by
// internal/core (the engine) and internal/action (the session), with
// executables in cmd/ and
// runnable scenarios in examples/. bench_test.go at this root holds one
// benchmark per experiment; cmd/vexus-bench prints the corresponding
// paper-style tables.
//
// # Deviation: exact neighbour lists on demand
//
// §II-A materializes the top 10% of each group's inverted similarity
// list. This optimizer asks the index for a candidate pool of 4,096
// neighbours, which reaches past that prefix on nearly every group, so
// a materialized prefix would be built and stored but almost never
// read. The engine's index (index.New) therefore stores no lists and
// computes each exact list when an explore asks for it; no build,
// snapshot or ingest pays for prefixes. The optimizer asks through
// index.Similar, which returns the list's entries above the similarity
// bound, unsorted and cut to the pool size, each with the overlap
// count its similarity came from: the optimizer sorts its pool once,
// by the personalized similarity, and seeds its coverage counts from
// those overlaps instead of recounting them. The paper's partial
// materialization stays as a study: vexus-bench E2 builds it with
// index.BuildParallel and measures memory, lookup cost and the
// optimizer objective against the fraction.
//
// # Deviation: one group miner
//
// §II-A calls VEXUS independent of its discovery algorithm and names
// LCM for datasets and BIRCH or STREAMMINING for streams. Here the
// miner is not an option: core.Build always mines with LCM
// (lcm.MineParallel), so every engine is ingestable, its snapshot
// always replays deltas, and neither snapshots nor save files record
// which miner ran. Streamed input has one path, Engine.Ingest, which
// commits each batch exactly and durably by re-running LCM over the
// augmented dataset.
//
// STREAMMINING is not implemented. A lossy counter (Jin & Agrawal)
// once served an ingest dry run, selected by a query flag on the
// ingest endpoint, which returned approximate itemsets over the
// augmented data and committed nothing. No explorer saw them, no
// client sent the flag, and the dry run was not cheap either: it
// appended the batch and re-encoded the whole dataset before
// counting. On DB-AUTHORS with 3,000 authors (seed 1, minsup 0.02,
// Workers = 1, 2-core Xeon, go1.24.0), the dry run of a 20-action
// batch took 381–453 ms and committing it with Ingest took 57–96 ms,
// over three rounds each. The ingest endpoint now refuses any query
// string with 400, so an old client's dry run cannot commit by
// mistake.
//
// BIRCH is not implemented either: its CF-tree clustered users into a
// fixed number K of groups, no deployment configured it, and only an
// example ran it. Keeping it as an option cost a miner interface, an
// engine mode that refused ingestion, a miner name in snapshots and
// save files, and a fingerprint branch, all for output no explorer
// saw.
//
// # Deviation: no anticipation cache
//
// §I says VEXUS uses the explorer profile "to anticipate follow-up
// steps and select groups on-the-fly". An earlier core.Prefetcher did
// this: after each display it ran the optimizer in the background for
// every shown group, so a click on one was served from cache. It had
// one caller, an example, and it is deleted, for three reasons. First,
// no idle time exists to hide the work in: wallbench's analyst posts
// each batch as soon as the previous one returns. Second, the work
// competes with the click it anticipates: prefetching the 7 shown
// groups costs about 7 × 3 ms of construction CPU on a 2-core host,
// against a 4.6 ms browse explore. Third, under the default 100 ms
// wall-clock optimizer budget a cached selection is not the one a
// replay recomputes, so a cache in the action layer would break
// replay's byte identity. Once the optimizer budget is deterministic
// (ROADMAP item 3) a cache keyed by engine version, focal group and
// profile would be replay-safe, and the question can be measured
// again.
//
// # Concurrency
//
// internal/parallel is the worker-pool primitive behind every
// parallelized hot path: bounded fan-out over index ranges
// (parallel.Range / parallel.ForEach, runtime.NumCPU() workers by
// default) with determinism guaranteed by slot-writes — each unit of
// work owns its output slot and per-worker scratch, so any worker
// count produces bit-identical results. The offline pipeline uses it
// in groups.NewSpaceParallel (user→groups inversion) and
// Space.ComputeStatsParallel. The online optimizer scores its candidate
// pool on the calling goroutine: the per-candidate work is smaller
// than a fan-out costs, so greedy.Config.Workers is ignored (it stays
// until the benchmark's next change, which sets it).
//
// Group discovery and evaluation parallelize the same way:
// lcm.MineParallel fans the top-level PPC enumeration subtrees over
// the pool with a shared atomic budget tracker preserving the exact
// MaxGroups truncation semantics of the sequential run, and
// simulate.RunMTBatchParallel /
// RunSTBatchParallel / RunBrowseBatchParallel shard simulation
// campaigns run-per-slot with aggregates reduced in run order — all
// bit-identical, at any worker count, to the sequential references
// their tests keep.
//
// Engines are immutable values and safe to share: core.Build returns
// a finished engine, and live ingestion (see Live datasets) never
// mutates one — Engine.Ingest builds a successor version and the old
// engine keeps serving until nobody holds it. Sessions are
// single-explorer state. cmd/vexus-server multiplexes many
// explorers by giving each an isolated action.Session behind POST
// /api/v1/sessions (endpoints address it via its session id), with
// per-session locking, a TTL sweeper for idle sessions, and LRU
// eviction at the session cap.
//
// # The action layer
//
// internal/action is the single write path to a session, and the
// compiler enforces it. The exploration state — display, focal group,
// HISTORY with its profile snapshots, CONTEXT feedback profile, MEMO —
// is unexported in action.Session, Apply is the only code that writes
// it, and Session.Sess is a view with read methods only (its Feedback
// returns a snapshot). internal/core keeps the engine and the pure
// step functions Apply calls. One write stays outside: the open STATS
// view, Session.Focus, is a *core.FocusView whose Brush and ClearBrush
// are exported, because wallbench's traced replay times a brush by
// calling them directly; moving them behind Apply waits for a
// benchmark change.
//
// The layer is a typed, versioned vocabulary of the paper's
// interactions (start, startFrom, explore, backtrack, focus, brush,
// unlearn, unlearnUser, bookmarkGroup, bookmarkUser) with one
// dispatcher, action.Apply, and a batch form, ApplyAll, that reports
// per-action error positions.
// The JSON codec is strict both ways — unknown fields, unknown ops
// and misplaced operands are rejected — so stored trails cannot rot
// silently. Every successful Apply returns a Diff computed against
// the pre-action state (shown groups added/removed, focal change,
// CONTEXT/MEMO deltas, mutation counter): the server's POST
// /api/v1/sessions/{sid}/actions returns these diffs per batch entry
// (?full=1 for a full snapshot), and the state ETag is derived from
// the same mutation counter, so diff consumers always hold a current
// validator. Every frontend shares the path: the HTTP server (the
// bundled page posts v1 batches), session persistence (the v2 SAVE
// format serializes the complete action log; it is the only format
// written or read), the vexus CLI's REPL and -script replay,
// internal/simulate, whose campaigns emit their trails as replayable
// action logs, vexus-bench's experiments and the examples.
//
// # Warm starts and the dataset catalog
//
// internal/store is the layer between the offline pipeline and online
// serving: it serializes a built engine into a versioned binary
// snapshot — little-endian, length-prefixed CRC-checked sections
// (schema, users, items, actions, vocab, transactions, groups, meta),
// bitsets as raw word arrays, no reflection — and loads it back
// bit-identical to a fresh core.Build. The header carries a SHA-256
// content address of the dataset + pipeline config
// (store.ComputeFingerprint); store.BuildOrLoad serves a snapshot only
// on an exact match and otherwise rebuilds and overwrites it, so a
// stale snapshot can cost time but never correctness.
//
// The trust boundary: the pipeline configuration is the caller's.
// store.BuildOrLoad and store.LoadFreshBytes take the spec's dataset
// and configuration, compute the fingerprint from them, and decode the
// engine (or replay its deltas) under that configuration; the snapshot
// stores none, and its META section holds only build timings. The
// mined VOCB/TXNS/GRPS sections and the dataset sections (which a
// compaction rewrites to hold the folded batches) are a cache of a
// deterministic build, trusted under their CRCs and the fingerprint
// chain; no load compares them with the caller's dataset. The group
// section embeds a per-record offset table and decodes in parallel
// (slot-writes again); derived state (user→group inversion, tid-lists,
// size order) is reconstructed deterministically rather than stored.
// cmd/vexus -snapshot and cmd/vexus-server -datasets wire this in.
// wallbench times the warm start end to end (restart_s) and per layer
// (store.load_ms); BenchmarkSnapshotLoad times the decoder alone.
//
// Every vexus-server serves a dataset catalog, built one way
// (serve.NewCatalog): a set of named dataset specs. Without -datasets
// the -n/-seed/-minsup flags are its one spec, "default", held in
// memory. -datasets names a directory of <name>.json specs with
// <name>.snap snapshots alongside, so a single dataset that
// warm-starts is a directory holding one default.json. The default
// dataset builds (or warm-loads) before the server listens; any other
// builds on the first request naming it (POST
// /api/v1/sessions?dataset=). Concurrent first requests share one
// build, at most -max-engines engines stay resident (LRU, session-free
// datasets evicted first), and each dataset owns an isolated session
// registry. A dataset's base fingerprint, the head of its ingest
// delta chain, is computed from its spec and from nothing else. GET /api/datasets lists residency; GET
// /api/v1/sessions/{sid}/state carries an ETag derived from the
// session's mutation counter and honors If-None-Match with 304, so
// pollers stop re-downloading unchanged state snapshots.
//
// # Sharded session serving
//
// The HTTP server itself lives in internal/serve (cmd/vexus-server is
// flag wiring), and internal/cluster scales it across processes. The
// cluster contract has three legs:
//
//	Hashing    — session ids map to shards by rendezvous (HRW)
//	             hashing: stateless (any party knowing the shard
//	             names computes the same owner) and minimally
//	             disruptive (a shard joining or leaving reassigns
//	             only the sessions it wins or held).
//	Migration  — a session is its action log, so moving one is
//	             export → replay → delete: the gateway exports the
//	             v2 trail from the old owner, the new owner replays
//	             it through action.Apply under the same session id,
//	             and the source copy is deleted only after the
//	             import verifies. A failed migration fails closed —
//	             the source keeps serving.
//	Continuity — replaying n actions leaves the mutation counter at
//	             n, so the `"<sid>.<mutations>"` ETag stream is
//	             unbroken across a move; clients cannot tell their
//	             session migrated. Byte-identical states require
//	             bit-identical engines on every shard (same dataset
//	             spec; core.Build/store.BuildOrLoad guarantee the rest
//	             at any worker count) and the deterministic optimizer
//	             config (TimeLimit = 0, which -shard mode forces),
//	             pinned by equivalence tests at workers 1, 2 and 8.
//
// A Gateway owns routing and topology but no session state: it
// terminates the public API, proxies sticky-by-sid (creation hashes a
// gateway-minted sid, so placement and routing always agree),
// aggregates /api/sessions and /api/datasets across shards without
// double counting, reports health and residency on GET
// /api/v1/cluster, and rebalances on POST /api/v1/cluster/drain and
// /join — blocking traffic only per migrating session. Shards are
// ordinary servers (one spec or a -datasets catalog) started with
// -shard, which enables the /internal/cluster migration surface;
// gateways start with -cluster gateway -shards host:port,.... In-process
// shards (cluster.LocalShard) stand up a whole cluster in one test or
// benchmark binary. wallbench measures the gateway hop
// (cluster.hop_ms); internal/cluster's BenchmarkDrain measures the
// per-session migration latency.
//
// # Cluster membership
//
// The cluster is self-managing: the shard set is a live roster, not a
// static flag. Each shard runs a membership.Announcer that heartbeats
// POST /internal/cluster/heartbeat to the gateway (default every 2s,
// -announce / -heartbeat), carrying its name and address and nothing
// else: a heartbeat is liveness only, and GET /api/v1/cluster polls
// each shard's own sessions. The ack carries the topology epoch back.
// internal/membership holds only what both sides
// share (those wire types, the Announcer, the secret check); the
// gateway keeps one roster in internal/cluster. Each roster entry holds
// the member's record, its liveness state, the gateway's client for it
// and its draining mark, so routing, failure detection, the epoch and
// the persisted table never disagree about who is in the cluster. A
// member reloaded with an address the gateway cannot dial gets a client
// from its first heartbeat that carries a good one.
//
// The roster tracks each member through alive → suspect → down:
// suspicion (silence past -suspect-after) is a warning — the member
// stays routable — while down (past -down-after) fails its routes
// closed: the member leaves the routing set, its sessions read as
// expired rather than ever being misrouted, and a later heartbeat
// re-admits it. A member that was never announced (static -shards
// entries before their first heartbeat) is exempt from detection.
// Drain and remove find every rostered member, client or not, and
// refuse to take out the last member that accepts new sessions.
//
// Routing state is durable and versioned. The roster maintains a
// monotonic topology epoch that advances only when the routing set
// changes — seeding the static members counts once, then each join,
// down, recovery and removal — never on metadata heartbeats or suspect
// transitions. Two gateways at the same epoch route every session id
// identically (rendezvous hashing is a pure function of the member
// set). With -routes the table (epoch + roster + states) persists via
// atomic rename on every change and reloads on restart: the gateway
// resumes at the saved epoch with zero re-resolution requests to the
// shards, down members stay down (fail closed across restarts), and
// reloaded-alive members get a fresh detection grace. A corrupt table
// refuses to load rather than route from garbage.
//
// Joins are warm: a joining shard never builds its own engine.
// Started with -shard -warm, its one-spec catalog is marked warm-only
// (Catalog.WarmOnly): it computes only the spec's fingerprint (its
// root of trust) and answers 503 to every create and readiness probe.
// POST /api/v1/cluster/join makes the gateway stream each engine a
// current member holds resident — every shard builds its default
// dataset before it listens, so a donor holds one from its start — as
// a snapshot (GET /internal/cluster/snapshot, the internal/store
// section codec) straight into the joiner (POST
// /internal/cluster/warm) without buffering; the joiner installs only
// after store.LoadFreshBytes verifies the stream's fingerprint chain
// against its own locally computed base — a truncated transfer, torn
// section or wrong dataset can never install, and a failed warm leaves
// the joiner out of the ring with the epoch unmoved. Only after the
// snapshot verifies does the member enter the routing set and receive
// rebalanced sessions.
//
// The whole cluster-internal surface — migration, snapshot, warm,
// heartbeat, metrics — authenticates with a shared secret
// (-cluster-secret / $VEXUS_CLUSTER_SECRET, the X-Vexus-Cluster-Secret
// header, constant-time compare; empty disables). The public API stays
// open. Membership observability rides the telemetry registry:
// vexus_cluster_epoch and vexus_cluster_members{state=} gauges on the
// gateway scrape, vexus_cluster_warmjoin_bytes_total and
// vexus_cluster_warmjoin_seconds metering transfers, the shard-side
// vexus_cluster_heartbeat_rtt_seconds histogram, and GET
// /api/v1/cluster reporting epoch, roster states and per-shard health;
// a gateway's readyz names down members and the operator action that
// clears them. examples/scripts/README.md walks a three-shard cluster
// through warm join, kill and recovery end to end.
//
// # Live diff streams
//
// GET /api/v1/sessions/{sid}/events is the push half of the action
// layer: a Server-Sent Events stream of the same action.Diff objects
// the POST path returns, one `event: diff` per mutation. The event id
// IS the session's mutation counter IS the ETag suffix — the three
// cursors are one number, so a client holding any of them knows
// exactly where it stands. Multiple clients on one session converge:
// every subscriber sees every diff in mutation order (the publish
// hook fires inside the apply critical section), which is what makes
// collaborative exploration work (internal/simulate's
// TestRunCollaborative pins N diff-tracking views byte-identical to
// the authoritative session, and internal/serve's
// TestStreamMultiClientConvergence does the same over HTTP).
//
// Reconnection is resumable: send the last seen id via the standard
// Last-Event-ID header (or ?lastEventID= for plain curl) and the
// server replays the missed diffs from a bounded per-session ring
// (256 by default, serve.Config.StreamReplay). If the gap exceeds
// the ring — or a fresh client attaches with no cursor — the stream
// opens with a single `event: resync` carrying a full state snapshot
// at the current id instead; clients must treat resync as
// authoritative replacement, never as a delta. Either way the first
// frame positions the client at the head, and subsequent diffs apply
// cleanly.
//
// Slow consumers never block the write path: each subscriber owns a
// bounded queue (serve.Config.StreamQueue) fed by a non-blocking
// send, and a subscriber that overflows is dropped to the resync
// path rather than applying backpressure to the session. Streams end
// loudly, not silently: a terminal `event: closed` frame carries a
// reason — "deleted", "dataset evicted", "server closing", or
// "migrated", which tells the client to reconnect with its cursor
// (the new owner's replayed ring serves the missed diffs, so the
// stream continues across a migration without duplicates or gaps;
// sessions with live subscribers are also pinned against TTL/LRU
// eviction). The gateway proxies the stream flush-per-write and
// releases its routing latch once attached, so an open stream never
// stalls a drain. Comment heartbeats (`:hb`) keep idle connections
// alive through proxies. wallbench measures push latency
// (push_p50_ms, stream.lag_ms); internal/serve's BenchmarkStreamFanout
// measures the cost of fanning a diff out to 0–64 subscribers.
//
// # Live datasets
//
// Datasets grow after deployment. Engine.Ingest folds a batch of new
// users and actions into a copy-on-write augmented dataset
// (dataset.Append) and re-runs the full deterministic pipeline, so
// the successor engine is bit-identical to core.Build over the
// augmented data — the global encodings (top items, activity
// quantiles) are recomputed, not approximated. Engine.Version counts
// the generations (1 + ingested batches) and Engine.Lineage records
// each batch's content digest. There is no approximate path beside it
// (see "Deviation: one group miner").
//
// Snapshots absorb ingests incrementally: store.AppendDeltaFile
// appends a DLTA section (the batch in its canonical binary encoding,
// length-prefixed and CRC-checked like every other section) and
// re-points the header fingerprint at the new chain head —
// store.ChainFingerprint hashes base fingerprint and batch digests
// into a verifiable lineage, so a half-written append or a foreign
// delta reads as ErrStale, never as wrong data. Loading replays
// pending deltas through one rebuild; store.BuildOrLoad compacts the
// file in place once enough deltas accumulate (store.CompactThreshold).
//
// Over HTTP, POST /api/v1/datasets/{name}/ingest commits a batch; it
// takes no query parameters and refuses any with 400. Batches are sequence-numbered against the
// engine version — replays of an applied seq are acknowledged
// idempotently, gaps are rejected with 409 — and the delta is made
// durable before the new engine becomes visible. Existing sessions
// stay pinned to the version they started on; only sessions whose
// shown or focal groups the new data actually touches
// (core.GroupTouched compares across versions by description) receive
// an advisory id-less `event: notice` on their SSE stream, so diff
// ids and `"<sid>.<mutations>"` ETags remain seamless for everyone.
// Migration honors the pin: a session export names its engine
// version, registries retain a bounded history of superseded engines,
// and the importer replays the trail against that exact generation —
// so draining a shard after an ingest moves sessions without
// re-aiming them at the new version.
// GET /api/datasets reports each resident engine's version. In a
// cluster the gateway is the sequencer: it fans the batch to every
// shard in sorted order, pins the seq the first shard assigns, and
// verifies all shards report the same resulting version — same batch,
// same seq, deterministic pipeline ⇒ bit-identical engines on every
// shard. It decodes each reply strictly: a sequencer reply that names
// no valid seq or version answers 502 before any other shard gets the
// batch. wallbench measures one ingest batch through the gateway
// (ingest_p50_ms), its layers (core.ingest_ms, store.delta_append_ms)
// and the warm load of a base+delta chain (restart_s).
//
// # Observability
//
// internal/telemetry is a dependency-free metrics and tracing layer:
// atomic counters, gauges, fixed-bucket histograms (with quantile
// estimation by linear interpolation inside the containing bucket),
// label vectors, and a hand-rolled Prometheus text-format encoder
// (version 0.0.4) — stdlib only, scrapes byte-stable under sorted
// family and label order. Every server and gateway owns a private
// registry (serve.Config.Telemetry / cluster.GatewayConfig.Telemetry;
// nil means a fresh one), exposed on GET /metrics uninstrumented so
// scrapes never inflate request counts. Instruments are nil-receiver
// safe, so call sites never check whether telemetry is on; the
// serving paths always run instrumented, and wallbench's timings
// include the instruments' cost.
//
// The serve layer exports request counts and latency histograms per
// route and status (vexus_http_requests_total,
// vexus_http_request_seconds), per-action-type apply latency
// (vexus_action_apply_seconds{op=}), session lifecycle counters and
// the live-session/resident-engine gauges (evaluated at scrape time),
// engine build/load timings and singleflight build waits, SSE stream
// gauges (subscribers, resumes, resyncs, overflow drops), and ingest
// metrics (batches, rows by kind, rebuild/swap seconds, per-dataset
// delta-chain length). The gateway mirrors the middleware under
// vexus_gateway_* and adds migration count/latency and the
// route-latch wait histogram; GET /api/v1/cluster carries a rollup
// summing every reachable shard's snapshot series-by-series (bucket
// series filtered).
//
// Requests are traceable across shards: the middleware mints an
// X-Vexus-Trace id (or adopts the caller's), reflects it on the
// response, and the gateway forwards it on every proxy hop — a
// migration mints one id and threads it through export, import and
// delete, so the same trace appears in both shards' span logs. Span
// records go through log/slog at Debug level (-log debug); liveness
// and readiness live at GET /api/v1/healthz and /api/v1/readyz (a
// gateway's readyz polls every shard and names the first unreachable
// one), and -pprof mounts net/http/pprof under /debug/pprof/.
//
// # Load and chaos harness
//
// internal/loadsim turns the whole stack into one deterministic
// experiment: a few dozen analysts (Zipf rank-frequency arrival rates,
// an explore/backtrack/focus+brush behavior mix drawn from per-user
// rng.Derive streams), each holding a real session, drive a
// multi-shard in-process cluster — real gateway, real
// cluster.LocalShard workers, real v1 action batches and SSE
// subscriptions — while a scripted fault schedule (kill a shard
// mid-trail, partition until the detector fires, bounce the gateway
// against its durable route table, drain, force an engine eviction)
// runs against it. The cluster lives entirely on an injected virtual
// clock with manual membership sweeps, session ids are harness-minted,
// and every Summary accumulator folds in fixed sequential order, so
// one Config produces a bit-identical Summary at any worker count —
// the equivalence suite pins workers 1, 2 and 8 under the race
// detector.
//
// The harness is an invariant gate, not a latency benchmark: it
// reports no latency, and serving speed is wallbench's job. The Summary
// records session creates, availability and session loss under chaos,
// migration-under-churn and replay cost, eviction counts read from
// each shard's registry, SSE delivery and close reasons — and a set of
// fail-closed invariants that must all hold: no session answered by
// the wrong owner, no ETag (`"<sid>.<mutations>"`) discontinuity for
// survivors, epoch bumps exactly on routing-set changes, no lost sid
// ever answering again (fail-open ghosts), gateway restarts preserving
// the persisted epoch, no rejected action batch and no unexpected
// status. Summary.FailClosed is the one definition of that set:
// vexus-bench -e p7 runs the harness as an experiment (writing
// BENCH_cluster_scale.json with -bench-note) and exits non-zero on any
// violation it names, and the loadsim tests assert the same method.
package vexus
