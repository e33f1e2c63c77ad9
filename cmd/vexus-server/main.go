// vexus-server exposes multi-session exploration over HTTP: a JSON API
// plus a self-contained HTML page that renders the five modules of
// Fig. 2 — GROUPVIZ (server-rendered force-layout SVG), CONTEXT,
// STATS histograms with brushing, HISTORY with backtrack, and MEMO.
// Idle sessions expire after -session-ttl; at -max-sessions the
// least-recently-used one is evicted. Everything is standard library;
// the page uses no external assets. The server itself lives in
// internal/serve (so the cluster gateway and the benchmarks can embed
// it); this binary is the flag wiring.
//
// # The v1 action API
//
// /api/v1 is the typed exploration-action API (internal/action), the
// only mutation surface:
//
//	POST   /api/v1/sessions?dataset=           → 201, full state + ETag
//	DELETE /api/v1/sessions/{sid}              → 204
//	GET    /api/v1/sessions/{sid}/state        → full state; If-None-Match honored (304)
//	POST   /api/v1/sessions/{sid}/actions      → apply an action batch
//
// The actions body is a JSON array of typed actions ({"op":"explore",
// "group":3}, {"op":"brush","attr":"gender","values":["female"]}, …;
// vocabulary in internal/action). Decoding is strict: unknown fields,
// unknown ops and operands that do not belong to an op are rejected.
// Batches apply in order under the session lock and stop at the first
// failure; the response reports, per applied action, the optimizer
// metrics (explore) and a state *diff*; with ?full=1 a successful
// batch returns the full state snapshot instead. The ETag header
// always reflects the state after the applied prefix and equals
// `"<sid>.<mutations>"`. The bundled page posts these batches.
// Sessions have one address, /api/v1/sessions/{sid}, and everything
// about a session lives under it — the two SVGs the page embeds as
// images included ({sid}/groupviz.svg, {sid}/focus.svg). The ops reads
// /api/sessions and /api/datasets take no session.
//
// # Deployment shapes
//
// Every shape serves a dataset catalog (serve.NewCatalog), and every
// non-warm shape builds its default dataset before it listens, so a
// bad build stops startup.
//
//   - Single dataset (default): -n / -seed / -minsup are the catalog's
//     one spec, {"default": {"dataset": "dbauthors", ...}}, served in
//     memory. A -n of 0 means 1000 authors and a -minsup of 0 means
//     0.02, as in a spec file.
//
//   - Catalog (-datasets dir/): every <name>.json in the directory
//     declares a dataset, with its <name>.snap snapshot alongside:
//     loaded when its content address matches, rebuilt and rewritten
//     when stale, and extended by every acknowledged ingest. Datasets
//     other than the default build or load on first use; at most
//     -max-engines stay resident. GET /api/datasets lists them. A
//     single dataset that warm-starts is a directory holding one
//     default.json.
//
//   - Cluster (internal/cluster): sessions shard across processes by
//     rendezvous-hashed session id, with replay-based migration when
//     the shard set changes.
//
//     Shard worker — a normal server (single-dataset or catalog
//     flags apply) that additionally exposes the cluster-internal
//     migration surface, for a private network behind a gateway:
//
//     vexus-server -shard -addr 127.0.0.1:7101 -n 2000
//
//     A warm joiner (-shard -warm, single-dataset flags only) builds
//     nothing: its spec only roots the fingerprint that the engine a
//     gateway streams in on join must verify against. Until then it
//     answers 503 to readiness probes and session creates.
//
//     Gateway — owns routing and topology, holds no session state:
//
//     vexus-server -cluster gateway -shards 127.0.0.1:7101,127.0.0.1:7102
//
//     The gateway proxies the full public API sticky-by-sid (creation
//     picks the shard by hashing a gateway-minted sid), aggregates
//     /api/sessions and /api/datasets across shards without double
//     counting, reports shard health and residency on GET
//     /api/v1/cluster, and migrates sessions off a shard on POST
//     /api/v1/cluster/drain?shard= (POST /api/v1/cluster/join?shard=
//     &addr= warms one from a member's resident engines, admits it
//     and rebalances). Every shard must serve a bit-identical engine
//     (same dataset flags/specs — the core.Build/store.LoadFile
//     determinism contract); shard mode
//     therefore forces the deterministic optimizer configuration
//     (no wall-clock cutoff), so a replayed trail reproduces the
//     exported session byte for byte.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"vexus/internal/cluster"
	"vexus/internal/greedy"
	"vexus/internal/membership"
	"vexus/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		n         = flag.Int("n", 1000, "synthetic researcher count (single-dataset mode)")
		seed      = flag.Uint64("seed", 42, "generator seed (single-dataset mode)")
		minSup    = flag.Float64("minsup", 0.02, "minimum group support fraction (single-dataset mode)")
		workers   = flag.Int("workers", 0, "offline pipeline + snapshot-load workers (0 = NumCPU; any value builds bit-identical engines)")
		dir       = flag.String("datasets", "", "serve a dataset catalog: a directory of <name>.json specs with <name>.snap snapshots alongside (overrides single-dataset flags)")
		defName   = flag.String("default-dataset", "", "catalog dataset served when a request names none (default: lexicographically first)")
		maxEng    = flag.Int("max-engines", 8, "resident engine cap in catalog mode, 0 = unlimited (LRU eviction, session-free datasets first)")
		ttl       = flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle longer than this (0 = never)")
		maxSess   = flag.Int("max-sessions", 4096, "live session cap per dataset, 0 = unlimited (idle-LRU eviction beyond it)")
		mode      = flag.String("cluster", "", `"gateway" routes sessions across the shards named by -shards`)
		shards    = flag.String("shards", "", "comma-separated shard addresses (host:port,...) for -cluster gateway")
		shard     = flag.Bool("shard", false, "run as a cluster shard worker: expose the /internal/cluster migration surface and use the deterministic optimizer config")
		secret    = flag.String("cluster-secret", os.Getenv("VEXUS_CLUSTER_SECRET"), "shared secret required on every /internal/cluster/* request (constant-time compare; default $VEXUS_CLUSTER_SECRET; empty disables the check)")
		routes    = flag.String("routes", "", "gateway: persist the membership route table (epoch + roster) to this file and reload it on restart")
		suspAft   = flag.Duration("suspect-after", 0, "gateway: mark a member suspect after this heartbeat silence (0 = 6s)")
		downAft   = flag.Duration("down-after", 0, "gateway: mark a member down — out of the routing set — after this heartbeat silence (0 = 20s)")
		announce  = flag.String("announce", "", "shard: gateway base URL (http://host:port) to heartbeat membership announcements to")
		beatEvery = flag.Duration("heartbeat", 2*time.Second, "shard: heartbeat interval for -announce")
		warmOnly  = flag.Bool("warm", false, "shard: do not build the engine; wait for a warm-join snapshot stream that verifies against the -n/-seed/-minsup spec (requires -shard)")
		logLvl    = flag.String("log", "info", "log level: debug (includes per-request and migration spans), info, warn, error")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/ (keep off on untrusted networks)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLvl)); err != nil {
		log.Fatalf("bad -log level %q: %v", *logLvl, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	if *mode != "" {
		if *mode != "gateway" {
			log.Fatalf("unknown -cluster mode %q (only \"gateway\")", *mode)
		}
		addrs, err := cluster.ParseShards(*shards, *addr)
		if err != nil {
			log.Fatal(err)
		}
		members := make([]*cluster.Shard, 0, len(addrs))
		for _, a := range addrs {
			members = append(members, cluster.RemoteShard(a, a))
		}
		gw, err := cluster.NewGatewayConfig(cluster.GatewayConfig{
			Logger:       logger,
			Secret:       *secret,
			RoutesPath:   *routes,
			SuspectAfter: *suspAft,
			DownAfter:    *downAft,
		}, members...)
		if err != nil {
			log.Fatal(err)
		}
		logger.Info("VEXUS gateway listening", "addr", *addr, "shards", gw.Shards(),
			"epoch", gw.Epoch(), "routes", *routes, "auth", *secret != "")
		log.Fatal(http.ListenAndServe(*addr, withPprof(gw.Routes(), *pprofOn)))
	}

	scfg := serve.DefaultConfig()
	scfg.SessionTTL = *ttl
	scfg.MaxSessions = *maxSess
	scfg.ShardAPI = *shard
	scfg.ClusterSecret = *secret
	scfg.Logger = logger
	if *warmOnly && !*shard {
		log.Fatal("-warm requires -shard (a warm joiner is a cluster member)")
	}
	if *warmOnly && *dir != "" {
		log.Fatal("-warm supports single-dataset mode only (a joiner receives only the engines its donor holds resident)")
	}
	if *announce != "" && !*shard {
		log.Fatal("-announce requires -shard (only cluster members heartbeat)")
	}

	gcfg := greedy.DefaultConfig()
	if *shard {
		// Replay-based migration re-runs the optimizer; only the
		// deterministic configuration makes the replayed session
		// byte-identical to the exported one.
		gcfg.TimeLimit = 0
	}

	// Every shape is a catalog. Without -datasets, the single-dataset
	// flags are its one spec, served in memory (no snapshot dir).
	specs := map[string]serve.DatasetSpec{
		"default": {Dataset: "dbauthors", N: *n, Seed: *seed, MinSup: *minSup},
	}
	name := "default"
	if *dir != "" {
		var err error
		if specs, err = serve.ScanCatalogDir(*dir); err != nil {
			log.Fatal(err)
		}
		name = *defName
	}
	cat, err := serve.NewCatalog(*dir, specs, name, gcfg, scfg, *workers, *maxEng)
	if err != nil {
		log.Fatal(err)
	}
	if *warmOnly {
		// Warm joiner: the spec roots the fingerprint the incoming
		// snapshot stream must verify against, but no engine is built —
		// it arrives over POST /internal/cluster/warm, and until then
		// every session create and readiness probe answers 503.
		cat.WarmOnly()
		logger.Info("warm-only shard: engine deferred to warm-join snapshot stream")
	} else if err := cat.BuildDefault(); err != nil {
		log.Fatal(err)
	}
	srv := serve.NewCatalogServer(cat)
	logger.Info("catalog ready", "datasets", len(specs), "dir", *dir,
		"default", cat.DefaultName(), "maxResident", *maxEng)

	if *announce != "" {
		gwURL := strings.TrimSuffix(*announce, "/")
		if !strings.Contains(gwURL, "://") {
			gwURL = "http://" + gwURL
		}
		ann := &membership.Announcer{
			// The name is the rendezvous identity: it must match the
			// address the gateway admitted this shard under (-shards
			// entry or join ?addr=), so announce with the same -addr.
			Self:     membership.Member{Name: *addr, Addr: *addr},
			Gateways: []string{gwURL},
			Secret:   *secret,
			Every:    *beatEvery,
			Info:     srv.LoadInfo,
			RTT: srv.Telemetry().Histogram("vexus_cluster_heartbeat_rtt_seconds",
				"Membership heartbeat round-trip time to the gateway.", nil),
			Logger: logger,
		}
		go ann.Run(context.Background())
		logger.Info("membership announcer running", "gateway", gwURL, "every", *beatEvery, "member", *addr)
	}

	role := "VEXUS"
	if *shard {
		role = "VEXUS shard"
	}
	logger.Info(role+" listening", "addr", *addr, "sessionTTL", *ttl, "maxSessions", *maxSess, "pprof", *pprofOn)
	err = http.ListenAndServe(*addr, withPprof(srv.Routes(), *pprofOn))
	srv.Close()
	log.Fatal(err)
}

// withPprof mounts the net/http/pprof handlers beside the API when
// enabled. The handlers are registered explicitly on our own mux —
// importing the package for its DefaultServeMux side effect would
// expose the profiler unconditionally, which is exactly what the flag
// exists to prevent.
func withPprof(h http.Handler, enabled bool) http.Handler {
	if !enabled {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}
