package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/etl"
	"vexus/internal/greedy"
	"vexus/internal/mining"
	"vexus/internal/store"
)

// DatasetSpec is one named dataset of a -datasets catalog directory: a
// <name>.json file describing where the data comes from. Synthetic
// specs carry generator parameters; csv specs point at ETL inputs
// relative to the directory. The REPL builds one from its flags.
type DatasetSpec struct {
	// Dataset selects the source: dbauthors | bookcrossing | csv.
	Dataset string `json:"dataset"`
	// N and Seed parameterize the synthetic generators.
	N    int    `json:"n,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// MinSup is the minimum group support fraction (default 0.02).
	MinSup float64 `json:"minsup,omitempty"`
	// Users/Actions are CSV paths for dataset "csv", relative to the
	// catalog directory.
	Users   string `json:"users,omitempty"`
	Actions string `json:"actions,omitempty"`
}

// errUnknownDataset marks a request for a name the catalog has no spec
// for; handlers surface it as 404.
var errUnknownDataset = errors.New("unknown dataset")

// catalogEntry is one named dataset and, once someone asks for it, its
// resident engine. Its sessions live in the catalog's one session
// table. All fields below the spec are guarded by catalog.mu; the slow
// build itself runs outside the lock with `building` as the
// singleflight latch.
type catalogEntry struct {
	name string
	spec DatasetSpec

	// eng is the dataset's current engine (nil = not resident): the
	// version new sessions start on. An ingest swaps it; existing
	// sessions keep the pointer they were created with
	// (clientSession.eng). Engine versions are immutable, so a session
	// pinned to an older version keeps serving it unchanged until the
	// session ends.
	eng *core.Engine
	// history retains superseded engine versions, keyed by Version():
	// an ingest records the outgoing engine here (bounded by
	// engineHistoryCap, oldest first out) so a migration import can pin
	// its replayed session to the exact generation it was exploring on
	// the source shard. nil until the first ingest; dropped on eviction.
	history map[uint64]*core.Engine
	// live counts this dataset's rows in the session table — the
	// per-dataset capacity Config.MaxSessions bounds. Only
	// createSession and dropLocked change it.
	live int

	err      error         // last build error (waiters + /api/datasets status)
	building chan struct{} // non-nil while a build is in flight; closed when done
	warm     bool          // last build was a snapshot load
	lastUsed time.Time

	// Ingestion state. baseFP is the spec dataset's content address —
	// the head of the delta chain before any ingestion — and snap the
	// snapshot path deltas append to ("" = in-memory only). Both come
	// from the spec (specInputs), by a build or a verified warm install.
	// ingestMu serializes ingests per dataset: the slow rebuild runs
	// under it, outside catalog.mu, so exploration requests never wait
	// on an ingest and concurrent ingests cannot interleave the seq
	// ladder. It also serializes warm-join installs (warm.go).
	ingestMu sync.Mutex
	baseFP   store.Fingerprint
	snap     string
}

// Catalog maps dataset names to lazily built engines: the first
// request for a name runs store.BuildOrLoad (snapshot warm start when
// fresh, full pipeline otherwise) exactly once — concurrent first
// requests wait on the same build — and an LRU bound on resident
// engines keeps many-dataset deployments inside memory. It is the one
// way a Server is assembled: a single dataset is a one-spec catalog,
// built ahead with BuildDefault, or marked WarmOnly for a joiner.
type Catalog struct {
	dir         string // snapshot + csv root; "" disables snapshotting
	gcfg        greedy.Config
	scfg        Config
	workers     int
	maxResident int // resident-engine cap (0 = unlimited)
	defaultName string
	// met is the telemetry bundle shared with the Server; always
	// non-nil.
	met *serverMetrics

	// mu guards the entries' resident state and the session table. Lock
	// order: a session's mutex before mu, mu before a stream hub's.
	mu      sync.Mutex
	entries map[string]*catalogEntry
	// sessions is the server's one session table, keyed by session id:
	// ids are unique per server, whatever dataset a session explores.
	sessions map[string]*sessionEntry
	now      func() time.Time // recency stamps, TTL sweeps and LRU eviction
	// warmOnly (WarmOnly) forbids local builds: every engine must
	// arrive as a verified warm-join snapshot stream. Guarded by mu.
	warmOnly bool

	// stop ends the TTL sweeper, and Close waits on sweeper for it to
	// exit.
	stopOnce sync.Once
	stop     chan struct{}
	sweeper  sync.WaitGroup
}

// NewCatalog assembles a catalog from named specs. defaultName selects
// the dataset served when a request names none; empty means the
// lexicographically first name.
func NewCatalog(dir string, specs map[string]DatasetSpec, defaultName string, gcfg greedy.Config, scfg Config, workers, maxResident int) (*Catalog, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("catalog: no datasets")
	}
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	if defaultName == "" {
		defaultName = names[0]
	}
	if _, ok := specs[defaultName]; !ok {
		return nil, fmt.Errorf("catalog: default dataset %q not among %v", defaultName, names)
	}
	c := &Catalog{
		dir:         dir,
		gcfg:        gcfg,
		scfg:        scfg,
		workers:     workers,
		maxResident: maxResident,
		defaultName: defaultName,
		entries:     make(map[string]*catalogEntry, len(specs)),
		sessions:    make(map[string]*sessionEntry),
		now:         clockOrNow(scfg),
		stop:        make(chan struct{}),
	}
	for name, spec := range specs {
		c.entries[name] = &catalogEntry{name: name, spec: spec}
	}
	c.met = newServerMetrics(scfg.Telemetry, scfg.Logger, c)
	if scfg.SessionTTL > 0 {
		c.sweeper.Add(1)
		go c.sweepEvery(scfg.SessionTTL / 4)
	}
	return c, nil
}

// ScanCatalogDir discovers dataset specs: every *.json file in dir
// names a dataset after its basename.
func ScanCatalogDir(dir string) (map[string]DatasetSpec, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	specs := make(map[string]DatasetSpec, len(matches))
	for _, path := range matches {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var spec DatasetSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, fmt.Errorf("catalog: %s: %w", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		specs[name] = spec
	}
	return specs, nil
}

// clockOrNow resolves the configured time source (Config.Clock, or
// time.Now).
func clockOrNow(scfg Config) func() time.Time {
	if scfg.Clock != nil {
		return scfg.Clock
	}
	return time.Now
}

// acquire resolves a dataset name ("" = default) to its entry and
// resident engine, building or snapshot-loading it on first use.
func (c *Catalog) acquire(name string) (*catalogEntry, *core.Engine, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.residentLocked(name)
	if err != nil {
		return nil, nil, err
	}
	return e, e.eng, nil
}

// residentLocked resolves a dataset name ("" = default) to its entry,
// whose engine is resident on success. The caller holds c.mu, and
// holds it again on return; it is dropped only while a build runs or
// is waited on. Exactly one goroutine builds; concurrent requests for
// the same name wait for that build and share its outcome, and
// requests for other datasets are unaffected. A failed build reports
// its error to the requests that waited on it, but the *next* request
// starts a fresh build — a transient failure (a CSV mid-copy, a blip
// on networked storage) must not poison the dataset until restart. The
// last error stays visible on /api/datasets.
func (c *Catalog) residentLocked(name string) (*catalogEntry, error) {
	if name == "" {
		name = c.defaultName
	}
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownDataset, name)
	}
	for {
		e.lastUsed = c.now()
		if e.eng != nil {
			return e, nil
		}
		if c.warmOnly {
			// Warm-only: the engine arrives as a verified snapshot
			// stream or not at all — never from a local build, which
			// is what keeps an un-warmed joiner failing closed.
			return nil, fmt.Errorf("dataset %q: %w", e.name, errWarming)
		}
		if e.building != nil {
			done := e.building
			c.mu.Unlock()
			c.met.buildWaits.Inc()
			<-done
			// Share this round's outcome: engine, or its error. An
			// entry already evicted again re-resolves from the top.
			c.mu.Lock()
			if e.eng != nil {
				return e, nil
			}
			if e.err != nil {
				return nil, e.err
			}
			continue
		}
		done := make(chan struct{})
		e.building, e.err = done, nil
		c.mu.Unlock()

		eng, warm, fp, snap, err := c.buildSpec(e.name, e.spec)

		c.mu.Lock()
		e.building = nil
		close(done)
		if err != nil {
			e.err = err
			return nil, err
		}
		c.installLocked(e, eng, warm, fp, snap)
		return e, nil
	}
}

// installLocked makes eng the resident engine of e — a local build or
// a verified warm-join stream — and then holds the resident-engine
// cap. The caller holds c.mu and has checked that e is not resident.
func (c *Catalog) installLocked(e *catalogEntry, eng *core.Engine, warm bool, baseFP store.Fingerprint, snap string) {
	e.eng, e.warm, e.lastUsed = eng, warm, c.now()
	e.baseFP, e.snap, e.err = baseFP, snap, nil
	c.evictOverflowLocked(e)
}

// evictOverflowLocked drops least-recently-used resident engines until
// the cap holds, never touching `keep` (the engine just built).
// Entries that still hold live sessions are evicted last — capacity is
// capacity, but an abandoned dataset goes first. Evicted datasets
// rebuild (or warm-load from their snapshot) on next use; their
// sessions are gone, exactly like a TTL expiry. The caller holds c.mu.
func (c *Catalog) evictOverflowLocked(keep *catalogEntry) {
	if c.maxResident <= 0 {
		return
	}
	for {
		resident := 0
		var victim *catalogEntry
		victimSessions := 0
		for _, e := range c.entries {
			if e.eng == nil {
				continue
			}
			resident++
			if e == keep {
				continue
			}
			n := e.live
			switch {
			case victim == nil:
				victim, victimSessions = e, n
			case (n == 0) != (victimSessions == 0):
				if n == 0 {
					victim, victimSessions = e, n
				}
			case e.lastUsed.Before(victim.lastUsed):
				victim, victimSessions = e, n
			}
		}
		if resident <= c.maxResident || victim == nil {
			return
		}
		// Streaming clients get a terminal `event: closed` naming the
		// reason before their sessions vanish — an eviction must not be
		// indistinguishable from a network fault.
		for _, se := range c.sessions {
			if se.ds == victim {
				se.cs.hub.close(reasonEvicted)
				c.dropLocked(se)
			}
		}
		victim.eng, victim.history, victim.warm = nil, nil, false
		c.met.engineEvictions.Inc()
		c.met.log.Info("engine evicted", "dataset", victim.name, "sessions", victimSessions)
	}
}

// DefaultName reports the dataset served when a request names none.
func (c *Catalog) DefaultName() string { return c.defaultName }

// BuildDefault builds (or snapshot-loads) the default dataset now
// rather than on its first request. vexus-server runs it before it
// listens, so a bad build stops startup, and a shard is a warm-join
// donor from its first moment (donors stream resident engines only).
func (c *Catalog) BuildDefault() error {
	_, _, err := c.acquire("")
	return err
}

// WarmOnly marks the catalog warm-only (vexus-server -warm): no
// dataset is ever built locally. Each engine must arrive as a
// warm-join snapshot stream that verifies against its spec's
// fingerprint (POST /internal/cluster/warm); until then, session
// creates and readiness probes answer 503.
func (c *Catalog) WarmOnly() {
	c.mu.Lock()
	c.warmOnly = true
	c.mu.Unlock()
}

// DatasetStatus is one row of GET /api/datasets.
type DatasetStatus struct {
	Name     string `json:"name"`
	Default  bool   `json:"default"`
	Resident bool   `json:"resident"`
	Warm     bool   `json:"warmStart,omitempty"`
	Groups   int    `json:"groups,omitempty"`
	Users    int    `json:"users,omitempty"`
	Sessions int    `json:"sessions"`
	// Version is the resident engine's version: 1 for a fresh build,
	// +1 per ingested batch. Clients (and the cluster convergence
	// check) read it to know which data generation they are exploring.
	Version uint64 `json:"engineVersion,omitempty"`
	Error   string `json:"error,omitempty"`
}

// status reports every dataset's residency for the ops endpoint.
func (c *Catalog) status() []DatasetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]DatasetStatus, 0, len(c.entries))
	for _, e := range c.entries {
		st := DatasetStatus{Name: e.name, Default: e.name == c.defaultName, Resident: e.eng != nil, Warm: e.warm}
		if e.eng != nil {
			st.Groups = e.eng.Space.Len()
			st.Users = e.eng.Data.NumUsers()
			st.Sessions = e.live
			st.Version = e.eng.Version()
		}
		if e.err != nil {
			st.Error = e.err.Error()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sessionCount sums live sessions, total and per dataset. Every
// catalog dataset appears in the per-dataset map — non-resident ones
// at 0 — so the ops view never hides a dataset just because its
// engine is not built yet.
func (c *Catalog) sessionCount() (int, map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	per := make(map[string]int, len(c.entries))
	for _, e := range c.entries {
		per[e.name] = e.live
	}
	return len(c.sessions), per
}

// buildSpec materializes one spec: generate or import the dataset,
// then warm-start from the catalog-dir snapshot when its content
// address matches, rebuilding (and rewriting the snapshot) otherwise.
// It also returns the spec dataset's base fingerprint and the snapshot
// path — the coordinates the ingest path needs to append deltas.
func (c *Catalog) buildSpec(name string, spec DatasetSpec) (*core.Engine, bool, store.Fingerprint, string, error) {
	d, pcfg, snap, err := c.specInputs(name, spec)
	if err != nil {
		return nil, false, store.Fingerprint{}, "", err
	}
	started := time.Now()
	eng, warm, fp, err := store.BuildOrLoad(snap, d, pcfg)
	elapsed := time.Since(started)
	if err != nil {
		if eng == nil {
			return nil, false, store.Fingerprint{}, "", fmt.Errorf("dataset %q: %w", name, err)
		}
		// Built fine, snapshot not written — serve the engine; the
		// next restart just runs cold.
		c.met.log.Warn("snapshot write failed", "dataset", name, "err", err)
	}
	if warm {
		c.met.loadSeconds.Observe(elapsed.Seconds())
	} else {
		c.met.buildSeconds.Observe(elapsed.Seconds())
	}
	c.met.log.Info("engine ready", "dataset", name, "warm", warm, "ms", elapsed.Milliseconds(),
		"groups", eng.Space.Len(), "users", eng.Data.NumUsers())
	return eng, warm, fp, snap, nil
}

// specInputs resolves a spec to the inputs of its engine: the spec
// dataset and pipeline config (the roots of its fingerprint) and the
// snapshot path in the catalog dir ("" = in-memory only). A build and
// a warm-join install both start here, so they agree on the
// fingerprint by construction.
func (c *Catalog) specInputs(name string, spec DatasetSpec) (*dataset.Dataset, core.PipelineConfig, string, error) {
	d, pcfg, err := spec.Resolve(c.dir, c.workers)
	if err != nil {
		return nil, core.PipelineConfig{}, "", fmt.Errorf("dataset %q: %w", name, err)
	}
	snap := ""
	if c.dir != "" {
		snap = filepath.Join(c.dir, name+".snap")
	}
	return d, pcfg, snap, nil
}

// Resolve generates or imports the spec's dataset and returns it with
// the pipeline config it is mined under: the encoding its source needs,
// the spec's minimum support (0 means 0.02) and the given worker count.
// CSV paths are relative to dir. Every server and the REPL build their
// engine from these two values.
func (spec DatasetSpec) Resolve(dir string, workers int) (*dataset.Dataset, core.PipelineConfig, error) {
	pcfg := core.DefaultPipelineConfig()
	pcfg.MinSupportFrac = cmp.Or(spec.MinSup, 0.02)
	pcfg.Workers = workers
	var d *dataset.Dataset
	var err error
	switch spec.Dataset {
	case "dbauthors":
		pcfg.Encode = datagen.DBAuthorsEncodeOptions()
		d, err = datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: cmp.Or(spec.N, 1000), Seed: spec.Seed})
	case "bookcrossing":
		cfg := datagen.SmallScale(spec.Seed)
		cfg.NumUsers = cmp.Or(spec.N, cfg.NumUsers)
		pcfg.Encode = datagen.BookCrossingEncodeOptions()
		d, err = datagen.BookCrossing(cfg)
	case "csv":
		if spec.Users == "" || spec.Actions == "" {
			return nil, core.PipelineConfig{}, fmt.Errorf("csv spec needs users and actions paths")
		}
		pcfg.Encode = mining.DefaultEncodeOptions()
		d, err = loadCSVDataset(filepath.Join(dir, spec.Users), filepath.Join(dir, spec.Actions))
	default:
		return nil, core.PipelineConfig{}, fmt.Errorf("unknown dataset kind %q", spec.Dataset)
	}
	if err != nil {
		return nil, core.PipelineConfig{}, err
	}
	return d, pcfg, nil
}

// loadCSVDataset imports a users/actions CSV pair through the ETL
// stage, inferring the demographic schema from the users file.
func loadCSVDataset(usersPath, actionsPath string) (*dataset.Dataset, error) {
	uf, err := os.Open(usersPath)
	if err != nil {
		return nil, err
	}
	schema, _, err := etl.InferSchema(uf, etl.DefaultInferOptions())
	uf.Close()
	if err != nil {
		return nil, fmt.Errorf("inferring schema: %w", err)
	}
	b := dataset.NewBuilder(schema)
	if _, err := etl.LoadUsersFile(usersPath, b, schema, etl.DefaultRules()); err != nil {
		return nil, fmt.Errorf("loading users: %w", err)
	}
	if _, err := etl.LoadActionsFile(actionsPath, b, b.HasUser, etl.DefaultRules()); err != nil {
		return nil, fmt.Errorf("loading actions: %w", err)
	}
	return b.Build()
}
