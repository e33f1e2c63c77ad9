package serve

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"vexus/internal/action"
	"vexus/internal/membership"
	"vexus/internal/telemetry"
	"vexus/internal/viz"
)

// server multiplexes many concurrent explorers over a catalog of
// immutable engines: every client owns an isolated action.Session
// (created via POST /api/v1/sessions, optionally scoped to a named
// dataset with ?dataset=) addressed by its session id at
// /api/v1/sessions/{sid}. Sessions lock individually, so explorers
// never serialize on each other — only on their own in-flight request
// — and datasets build or snapshot-load lazily on first use.
//
// Every mutation routes through internal/action.Apply via the /api/v1
// batch endpoint — the only write path — so the per-action Diff
// (shown/context/memo deltas + mutation counter) is available on
// every mutation, and a session's applied-action log is always the
// complete story of its state (which is what makes replay-based
// migration in internal/cluster exact).
type Server struct {
	cat *Catalog
	// met is the catalog's telemetry bundle (never nil).
	met *serverMetrics
	// shardAPI enables the /internal/cluster/* routes a gateway drives
	// (Config.ShardAPI): id-assigned session creation, residency
	// listing, and trail export/import for replay-based migration.
	shardAPI bool
	// secret gates every /internal/cluster/* route behind the shared
	// cluster secret ("" = open, the pre-auth deployment shape).
	secret string
}

// Config bounds the session registry.
type Config struct {
	// SessionTTL evicts sessions idle longer than this (0 disables).
	SessionTTL time.Duration
	// MaxSessions caps live sessions (0 = unlimited); at capacity the
	// least-recently-used idle session is evicted to admit a new
	// explorer, and creation fails with 503 when none is idle.
	MaxSessions int
	// ShardAPI exposes the cluster-internal migration surface
	// (/internal/cluster/*). Enable it only on shard workers that sit
	// behind a gateway: it lets callers choose session ids.
	ShardAPI bool
	// ClusterSecret, when non-empty, requires every /internal/cluster/*
	// request to carry it in the X-Vexus-Cluster-Secret header
	// (constant-time compare; see internal/membership). Set the same
	// secret on the gateway and every shard.
	ClusterSecret string
	// StreamQueue bounds each SSE subscriber's send queue; a publish
	// finding the queue full drops that subscriber to a full-snapshot
	// resync instead of blocking the action write path (0 = 32).
	StreamQueue int
	// StreamReplay bounds the per-session ring of recent diff events
	// served to Last-Event-ID resumes; larger gaps resync (0 = 256).
	StreamReplay int
	// Telemetry receives every metric this server records. nil means a
	// fresh private registry (GET /metrics works out of the box), so
	// every route is always instrumented.
	Telemetry *telemetry.Registry
	// Logger is the structured logger for span records and catalog
	// events (nil = slog.Default()). Request/migration span logs are
	// emitted at Debug, so they cost nothing unless the handler's level
	// admits them.
	Logger *slog.Logger
	// Clock overrides the time source recency stamps, TTL sweeps, and
	// LRU eviction read from (nil = time.Now). Deterministic harnesses
	// (internal/loadsim) drive it with a virtual tick clock so eviction
	// decisions replay identically run to run.
	Clock func() time.Time
}

func DefaultConfig() Config {
	return Config{
		SessionTTL:  30 * time.Minute,
		MaxSessions: 4096,
	}
}

// maxBatchActions caps one v1 batch request; larger scripts should be
// split — the cap bounds per-request lock hold time on a session.
const maxBatchActions = 256

// NewCatalogServer serves a dataset catalog: the one way a Server is
// built, from one spec (vexus-server's -n/-seed/-minsup) or a
// -datasets directory of them. Engines build or snapshot-load on first
// request, unless the catalog was built ahead (BuildDefault) or marked
// warm-only (WarmOnly).
func NewCatalogServer(cat *Catalog) *Server {
	return &Server{
		cat:      cat,
		met:      cat.met,
		shardAPI: cat.scfg.ShardAPI,
		secret:   cat.scfg.ClusterSecret,
	}
}

// close releases every resident registry's sweeper.
func (s *Server) Close() { s.cat.Close() }

func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	// handle registers pattern with the telemetry middleware: the route
	// label is the pattern string itself (bounded cardinality), and the
	// wrapper propagates X-Vexus-Trace and records count + latency.
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.met.http.Wrap(pattern, h))
	}
	handle("GET /", s.handleIndex)

	// v1: the typed action API. Sessions are resources; mutations are
	// POSTed action batches; responses are per-action diffs (?full=1
	// for a full state snapshot instead).
	handle("POST /api/v1/sessions", s.handleV1SessionCreate)
	handle("DELETE /api/v1/sessions/{sid}", s.handleV1SessionDelete)
	handle("GET /api/v1/sessions/{sid}/state", s.handleV1State)
	handle("GET /api/v1/sessions/{sid}/events", s.handleV1Events)
	handle("POST /api/v1/sessions/{sid}/actions", s.handleV1Actions)
	handle("GET /api/v1/sessions/{sid}/groupviz.svg", s.handleGroupVizSVG)
	handle("GET /api/v1/sessions/{sid}/focus.svg", s.handleFocusSVG)
	// Live datasets: batched, sequence-numbered ingestion (and its
	// ?preview=1 lossy-counting dry run).
	handle("POST /api/v1/datasets/{name}/ingest", s.handleDatasetIngest)

	// Observability surface: liveness, readiness, and the Prometheus
	// exposition. /metrics is served straight off the registry — it is
	// not itself instrumented, so scrapes don't inflate request counts.
	handle("GET /api/v1/healthz", s.handleHealthz)
	handle("GET /api/v1/readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.met.reg.Handler())

	// Ops reads, which take no session.
	handle("GET /api/sessions", s.handleSessions)
	handle("GET /api/datasets", s.handleDatasets)

	if s.shardAPI {
		// Cluster-internal surface (enabled by Config.ShardAPI, i.e.
		// the -shard flag or an in-process cluster): session creation
		// with a gateway-chosen id, residency listing, the
		// export/import pair behind replay-based migration, the
		// warm-join snapshot stream pair, and the metrics snapshot the
		// gateway rolls up. A shard is expected to sit behind a gateway
		// on a private network; these routes are not part of the public
		// API, and with Config.ClusterSecret set every one of them
		// rejects requests that do not carry the shared secret.
		internal := func(pattern string, h http.HandlerFunc) {
			mux.Handle(pattern, s.met.http.Wrap(pattern, membership.Require(s.secret, h)))
		}
		internal("POST /internal/cluster/sessions", s.handleShardSessionCreate)
		internal("GET /internal/cluster/sessions", s.handleShardSessionList)
		internal("GET /internal/cluster/sessions/{sid}/export", s.handleShardExport)
		internal("POST /internal/cluster/sessions/{sid}/import", s.handleShardImport)
		internal("GET /internal/cluster/snapshot", s.handleShardSnapshot)
		internal("POST /internal/cluster/warm", s.handleShardWarm)
		mux.Handle("GET /internal/cluster/metrics", membership.Require(s.secret, http.HandlerFunc(s.handleShardMetrics)))
	}
	return mux
}

// sessionByID resolves the {sid} of a session path, writing the 404
// itself for an unknown or expired session. The id is never empty:
// ServeMux redirects a path with an empty segment to its cleaned form.
func (s *Server) sessionByID(w http.ResponseWriter, sid string) (*clientSession, bool) {
	cs, ok := s.cat.findSession(sid)
	if !ok {
		http.Error(w, "unknown or expired session "+sid, http.StatusNotFound)
		return nil, false
	}
	return cs, true
}

// stateDTO is the full UI state pushed to the page after every action.
type stateDTO struct {
	Session string       `json:"session"`
	Dataset string       `json:"dataset,omitempty"`
	Shown   []groupDTO   `json:"shown"`
	Focal   int          `json:"focal"`
	Context []contextDTO `json:"context"`
	History []historyDTO `json:"history"`
	Memo    memoDTO      `json:"memo"`
	Focus   *focusDTO    `json:"focus,omitempty"`
}

type groupDTO struct {
	ID         int     `json:"id"`
	Label      string  `json:"label"`
	Size       int     `json:"size"`
	Similarity float64 `json:"similarity"`
}

type contextDTO struct {
	Label  string  `json:"label"`
	Score  float64 `json:"score"`
	IsUser bool    `json:"isUser"`
}

type historyDTO struct {
	Step  int    `json:"step"`
	Label string `json:"label"`
}

type memoDTO struct {
	Groups []string `json:"groups"`
	Users  []string `json:"users"`
}

type focusDTO struct {
	GroupID    int            `json:"groupId"`
	Label      string         `json:"label"`
	Members    int            `json:"members"`
	Selected   int            `json:"selected"`
	Histograms []histogramDTO `json:"histograms"`
	Table      []tableRowDTO  `json:"table"`
}

type histogramDTO struct {
	Attr   string   `json:"attr"`
	Labels []string `json:"labels"`
	Counts []int    `json:"counts"`
}

type tableRowDTO struct {
	ID     string   `json:"id"`
	Acts   int      `json:"acts"`
	Demo   []string `json:"demo"`
	Marked bool     `json:"marked"`
}

// batchDTO is the body of POST /api/v1/sessions/{sid}/actions: per-
// action results for the applied prefix, and — when a mid-batch action
// failed — its position and message. ETag is the validator after the
// applied prefix, equal to the ETag header.
type batchDTO struct {
	Session     string          `json:"session"`
	ETag        string          `json:"etag"`
	Applied     int             `json:"applied"`
	Results     []action.Result `json:"results"`
	Error       string          `json:"error,omitempty"`
	FailedIndex *int            `json:"failedIndex,omitempty"`
}

// state assembles the DTO; the caller must hold cs.mu. Everything
// renders through the session's own engine, so sessions over different
// catalog datasets coexist behind one mux.
func (s *Server) state(cs *clientSession) stateDTO {
	eng := cs.eng
	sess := cs.act.Sess
	st := stateDTO{Session: cs.id, Dataset: cs.dataset, Focal: sess.Focal()}
	for _, v := range sess.Views("") {
		st.Shown = append(st.Shown, groupDTO{
			ID: v.ID, Label: v.Label, Size: v.Size, Similarity: v.Similarity,
		})
	}
	for _, e := range sess.Context(action.ContextTop) {
		st.Context = append(st.Context, contextDTO{Label: e.Label, Score: e.Score, IsUser: e.IsUser})
	}
	for i, step := range sess.History() {
		label := "start"
		if step.Focal >= 0 {
			label = eng.GroupLabel(step.Focal)
		}
		st.History = append(st.History, historyDTO{Step: i, Label: label})
	}
	m := sess.Memo()
	for _, gid := range m.Groups() {
		st.Memo.Groups = append(st.Memo.Groups, eng.GroupLabel(gid))
	}
	for _, u := range m.Users() {
		st.Memo.Users = append(st.Memo.Users, eng.Data.Users[u].ID)
	}
	if focus := cs.act.Focus; focus != nil {
		fd := &focusDTO{
			GroupID:  focus.GroupID,
			Label:    eng.GroupLabel(focus.GroupID),
			Members:  len(focus.Members),
			Selected: focus.SelectedCount(),
		}
		for _, attr := range focus.Attributes() {
			labels, counts, err := focus.Histogram(attr)
			if err != nil {
				continue
			}
			fd.Histograms = append(fd.Histograms, histogramDTO{Attr: attr, Labels: labels, Counts: counts})
		}
		for _, row := range focus.Table(12) {
			fd.Table = append(fd.Table, tableRowDTO{
				ID: row.ID, Acts: row.NumAct, Demo: row.Demo,
				Marked: m.HasUser(row.User),
			})
		}
		st.Focus = fd
	}
	return st
}

// writeState renders the session's state with its ETag (derived from
// the session's mutation counter); the caller must hold cs.mu.
func (s *Server) writeState(w http.ResponseWriter, cs *clientSession) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", cs.etag())
	_ = json.NewEncoder(w).Encode(s.state(cs))
}

// writeCreated answers a session creation: 201, the session's address
// in Location, its validator and its initial state.
func (s *Server) writeCreated(w http.ResponseWriter, cs *clientSession) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	w.Header().Set("Location", "/api/v1/sessions/"+cs.id)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", cs.etag())
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(s.state(cs))
}

func (s *Server) handleV1SessionCreate(w http.ResponseWriter, r *http.Request) {
	cs, err := s.cat.createSession(r.FormValue("dataset"), "", 0)
	if err != nil {
		writeCreateError(w, err)
		return
	}
	s.writeCreated(w, cs)
}

func (s *Server) handleV1SessionDelete(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.sessionByID(w, r.PathValue("sid"))
	if !ok {
		return
	}
	s.cat.removeSession(cs.id, s.deleteReason(r))
	w.WriteHeader(http.StatusNoContent)
}

// deleteReason is what a deleted session's attached streams are told.
// The gateway's post-migration cleanup passes ?reason=migrated so a
// streaming client knows to reconnect (its session lives on, on the
// new owner) rather than give up; the hint is honored only on shard
// workers — on a public server any caller-supplied reason collapses
// to the plain delete.
func (s *Server) deleteReason(r *http.Request) string {
	if s.shardAPI && r.FormValue("reason") == reasonMigrated {
		return reasonMigrated
	}
	return reasonDeleted
}

// handleSessions reports registry occupancy — the ops view of a
// multi-explorer deployment — total and per dataset (every catalog
// dataset appears, non-resident ones at 0).
func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	total, per := s.cat.sessionCount()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Sessions   int            `json:"sessions"`
		PerDataset map[string]int `json:"perDataset"`
	}{total, per})
}

// handleDatasets lists the catalog: every known dataset, whether its
// engine is resident, whether the last start was warm, and its live
// session count.
func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Default  string          `json:"default"`
		Datasets []DatasetStatus `json:"datasets"`
	}{s.cat.defaultName, s.cat.status()})
}

func (s *Server) handleV1State(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.sessionByID(w, r.PathValue("sid"))
	if !ok {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if etag := cs.etag(); etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.writeState(w, cs)
}

// etagMatches implements the RFC 9110 §13.1.2 If-None-Match check
// against the current validator. "*" (the whole field, not a list
// member) matches any current representation; otherwise the field is a
// comma-separated list of entity tags compared with the *weak*
// comparison — W/ prefixes are ignored on both sides, opaque tags must
// be identical.
func etagMatches(header, etag string) bool {
	header = strings.TrimSpace(header)
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	current := strings.TrimPrefix(etag, "W/")
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part != "" && part == current {
			return true
		}
	}
	return false
}

// handleV1Actions is the batch mutation endpoint: a JSON array of
// actions (or {"actions":[...]}) applied in order under the session
// lock. The response carries one Result — optimizer metrics plus state
// diff — per applied action; ?full=1 returns the full state snapshot
// instead (the diffs still happen, they are just not serialized). A
// mid-batch failure stops the batch: the prefix stays applied and the
// response names the failing index. The ETag header always reflects
// the state after the applied prefix.
func (s *Server) handleV1Actions(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.sessionByID(w, r.PathValue("sid"))
	if !ok {
		return
	}
	raw, ok := ReadBody(w, r, maxActionBody)
	if !ok {
		return
	}
	acts, err := action.DecodeLog(raw)
	if err != nil {
		http.Error(w, "bad action batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(acts) == 0 {
		http.Error(w, "empty action batch", http.StatusBadRequest)
		return
	}
	if len(acts) > maxBatchActions {
		http.Error(w, "batch exceeds "+strconv.Itoa(maxBatchActions)+" actions", http.StatusBadRequest)
		return
	}

	cs.mu.Lock()
	defer cs.mu.Unlock()
	results, applyErr := action.ApplyAll(cs.act, acts)

	if applyErr == nil && r.URL.Query().Get("full") == "1" {
		s.writeState(w, cs)
		return
	}
	body := batchDTO{
		Session: cs.id,
		ETag:    cs.etag(),
		Applied: len(results),
		Results: results,
	}
	status := http.StatusOK
	if applyErr != nil {
		status = http.StatusBadRequest
		body.Error = applyErr.Error()
		var be *action.BatchError
		if errors.As(applyErr, &be) {
			idx := be.Index
			body.FailedIndex = &idx
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", cs.etag())
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// maxActionBody bounds one action batch request body, well above
// what maxBatchActions actions encode to.
const maxActionBody = 1 << 20

// ReadBody reads the request body whole, at most limit bytes. A longer
// body is answered 413 naming the limit, rather than cut short and
// parsed as malformed; a failed read is answered 400. Either way ok is
// false and the response is written.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) (raw []byte, ok bool) {
	defer r.Body.Close()
	raw, err := readAtMost(r.Body, limit)
	if errors.Is(err, errTooLarge) {
		http.Error(w, "request body "+err.Error(), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	if err != nil {
		http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return raw, true
}

func (s *Server) handleGroupVizSVG(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.sessionByID(w, r.PathValue("sid"))
	if !ok {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	sess := cs.act.Sess
	colorAttr := r.URL.Query().Get("color")
	if colorAttr == "" {
		colorAttr = cs.eng.Data.Schema.Attrs[0].Name
	}
	views := sess.Views(colorAttr)
	maxSize := 1
	for _, v := range views {
		if v.Size > maxSize {
			maxSize = v.Size
		}
	}
	nodes := make([]viz.Node, len(views))
	for i, v := range views {
		nodes[i] = viz.Node{ID: v.ID, Radius: viz.RadiusForSize(v.Size, maxSize)}
	}
	var edges []viz.Edge
	for i := range views {
		for j := i + 1; j < len(views); j++ {
			sim := cs.eng.Space.Group(views[i].ID).Jaccard(cs.eng.Space.Group(views[j].ID))
			if sim > 0 {
				edges = append(edges, viz.Edge{A: i, B: j, Strength: sim})
			}
		}
	}
	placed := viz.Layout(nodes, edges, viz.DefaultLayoutConfig())
	circles := make([]viz.Circle, len(placed))
	for i, nd := range placed {
		circles[i] = viz.Circle{
			X: nd.X, Y: nd.Y, R: nd.Radius,
			Label:     views[i].Label,
			Title:     strconv.Itoa(views[i].Size),
			Shares:    views[i].ColorShares,
			Highlight: views[i].ID == sess.Focal(),
		}
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	_, _ = w.Write([]byte(viz.GroupVizSVG(circles, 720, 480)))
}

func (s *Server) handleFocusSVG(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.sessionByID(w, r.PathValue("sid"))
	if !ok {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	focus := cs.act.Focus
	if focus == nil || focus.Projection == nil {
		http.Error(w, "no focused projection", http.StatusNotFound)
		return
	}
	classIdx := cs.eng.Data.Schema.AttrIndex(focus.ClassAttr)
	points := make([]viz.ScatterPoint, len(focus.Projection.Points))
	for i, p := range focus.Projection.Points {
		u := focus.Members[i]
		cls := -1
		if classIdx >= 0 {
			cls = cs.eng.Data.Users[u].Demo[classIdx]
		}
		points[i] = viz.ScatterPoint{X: p[0], Y: p[1], Class: cls, Label: cs.eng.Data.Users[u].ID}
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	_, _ = w.Write([]byte(viz.ScatterSVG(points, 420, 320)))
}
