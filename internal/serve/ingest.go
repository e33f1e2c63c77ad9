package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"vexus/internal/core"
	"vexus/internal/mining/stream"
	"vexus/internal/store"
)

// This file is the live-dataset write path: POST
// /api/v1/datasets/{name}/ingest folds a batch of new users and
// actions into the named dataset's engine. Ingestion follows the same
// discipline as the action log — batches are sequence-numbered against
// the engine version (batch k applies to version k and produces k+1),
// which makes the endpoint replayable: a retry of an already-applied
// seq is acknowledged without re-applying, a gap is rejected with 409,
// and the cluster gateway pins one seq across every shard so they all
// converge on the same version.
//
// Sessions never see their engine change underneath them: each stays
// pinned to the version it started on, and only sessions whose shown
// or focal groups are actually touched by the new data receive an
// advisory `event: notice` on their SSE stream (id-less, so resume
// cursors and `"<sid>.<mutations>"` ETags are untouched). Everyone
// else's stream is byte-identical to a world where the ingest never
// happened.

// MaxIngestBody bounds one ingest request body, on a shard and on the
// gateway that fans it out. Batches are meant to be incremental — bulk
// history belongs in the build path.
const MaxIngestBody = 8 << 20

// errSeqConflict marks a batch whose seq is ahead of the engine
// version — the client skipped a batch; handlers surface 409.
var errSeqConflict = errors.New("ingest seq ahead of engine version")

// persistError marks an ingest that could not be made durable; the
// engine was NOT swapped, so a retry is safe. Handlers surface 500.
type persistError struct{ err error }

func (p *persistError) Error() string { return "persist ingest: " + p.err.Error() }
func (p *persistError) Unwrap() error { return p.err }

// IngestResult is the response body of a committed (or replayed)
// ingest. Exported so the cluster gateway can decode shard responses
// into the same shape it serves.
type IngestResult struct {
	Dataset       string `json:"dataset"`
	Seq           uint64 `json:"seq"`
	EngineVersion uint64 `json:"engineVersion"`
	// AlreadyApplied marks an idempotent replay: the batch's seq was
	// below the next expected one, so nothing changed.
	AlreadyApplied bool `json:"alreadyApplied,omitempty"`
	Users          int  `json:"users"`
	Actions        int  `json:"actions"`
	// Groups is the new version's group count; NewGroups and
	// ChangedGroups summarize its delta against the previous version.
	Groups        int `json:"groups"`
	NewGroups     int `json:"newGroups"`
	ChangedGroups int `json:"changedGroups"`
	// Notified counts the live sessions whose display was touched by
	// the new data and therefore received a notice event.
	Notified int `json:"notified"`
}

// ingest commits one batch against the named dataset. The rebuild runs
// under the entry's ingestMu — never under catalog.mu — so exploration
// requests proceed throughout; the engine swap at the end is a pointer
// write under catalog.mu.
func (c *Catalog) ingest(name string, b core.IngestBatch) (IngestResult, error) {
	for {
		e, reg, err := c.acquire(name)
		if err != nil {
			return IngestResult{}, err
		}
		e.ingestMu.Lock()
		c.mu.Lock()
		if e.reg != reg || e.eng == nil {
			// Evicted between acquire and here: rebuild and retry.
			c.mu.Unlock()
			e.ingestMu.Unlock()
			continue
		}
		cur, baseFP, snap := e.eng, e.baseFP, e.snap
		c.mu.Unlock()
		res, err := c.applyIngest(e, reg, cur, baseFP, snap, b)
		e.ingestMu.Unlock()
		return res, err
	}
}

// applyIngest is the seq check → rebuild → persist → swap → notify
// ladder; the caller holds e.ingestMu (and nothing else).
func (c *Catalog) applyIngest(e *catalogEntry, reg *registry, cur *core.Engine, baseFP store.Fingerprint, snap string, b core.IngestBatch) (IngestResult, error) {
	res := IngestResult{
		Dataset:       e.name,
		EngineVersion: cur.Version(),
		Users:         len(b.Users),
		Actions:       len(b.Actions),
	}
	next := cur.Version()
	switch {
	case b.Seq == 0:
		b.Seq = next
	case b.Seq < next:
		// A replayed batch: this seq is already folded in. Acknowledge
		// without touching anything — that is what makes gateway
		// retries and crash-recovery replays safe.
		res.Seq = b.Seq
		res.AlreadyApplied = true
		res.Groups = cur.Space.Len()
		return res, nil
	case b.Seq > next:
		return res, fmt.Errorf("%w: batch seq %d, next expected %d", errSeqConflict, b.Seq, next)
	}
	res.Seq = b.Seq

	rebuildStart := time.Now()
	ne, err := cur.Ingest(b)
	if err != nil {
		return res, err
	}
	c.met.ingestRebuild.Observe(time.Since(rebuildStart).Seconds())

	// Durability before visibility: the delta reaches the snapshot
	// before any session can observe the new version, so a crash after
	// a 200 can never lose an acknowledged batch. If in-place append
	// fails (say the base snapshot was never written), fall back to a
	// full compacted rewrite; only when neither lands does the ingest
	// fail — engine unswapped, retry safe.
	if snap != "" {
		head := store.ChainFingerprint(baseFP, ne.Lineage())
		if aerr := store.AppendDeltaFile(snap, b, head); aerr != nil {
			if serr := store.SaveFile(snap, ne, baseFP); serr != nil {
				return res, &persistError{fmt.Errorf("append delta: %v; rewrite snapshot: %w", aerr, serr)}
			}
		}
	}

	swapStart := time.Now()
	c.mu.Lock()
	resident := e.reg == reg
	if resident {
		e.eng = ne
		e.lastUsed = c.now()
	}
	c.mu.Unlock()

	res.EngineVersion = ne.Version()
	res.Groups = ne.Space.Len()
	res.NewGroups, res.ChangedGroups = core.DiffSpaces(cur.Space, ne.Space)

	c.met.ingestBatches.Inc()
	c.met.ingestRows.With("users").Add(uint64(len(b.Users)))
	c.met.ingestRows.With("actions").Add(uint64(len(b.Actions)))
	// Chain length = deltas past the base build; BuildOrLoad compaction
	// resets it on the next cold start.
	c.met.deltaChain.With(e.name).Set(int64(ne.Version() - 1))

	if !resident {
		// The dataset was evicted while we rebuilt. With a snapshot the
		// batch is durable — the next acquire folds the delta in and
		// lands on exactly this version — so the ingest succeeded; the
		// in-memory-only case has nowhere to keep it.
		if snap == "" {
			return res, &persistError{errors.New("dataset evicted mid-ingest and no snapshot directory to persist to")}
		}
		return res, nil
	}
	reg.swapEngine(ne)
	c.met.ingestSwap.Observe(time.Since(swapStart).Seconds())
	res.Notified = notifyTouched(reg, ne, e.name, b.Seq)
	c.met.log.Info("ingest committed",
		"dataset", e.name, "seq", res.Seq, "version", res.EngineVersion,
		"users", res.Users, "actions", res.Actions, "notified", res.Notified)
	return res, nil
}

// notifyTouched sends the advisory notice to exactly the sessions
// whose current display intersects the change. The event carries no id
// — writeSSE omits the id line — so it never advances a client's
// Last-Event-ID cursor and the session's diff stream and ETags remain
// seamless; clients treat it as "the dataset moved on, start a fresh
// session to see version N".
func notifyTouched(reg *registry, ne *core.Engine, dataset string, seq uint64) int {
	data, _ := json.Marshal(struct {
		Dataset       string `json:"dataset"`
		EngineVersion uint64 `json:"engineVersion"`
		Seq           uint64 `json:"seq"`
		Reason        string `json:"reason"`
	}{dataset, ne.Version(), seq, "dataset updated"})
	ev := streamEvent{name: "notice", data: data}
	n := 0
	for _, cs := range reg.sessions() {
		cs.mu.Lock()
		touched := sessionTouched(cs, ne)
		cs.mu.Unlock()
		if touched {
			cs.hub.broadcast(ev)
			n++
		}
	}
	return n
}

// sessionTouched reports whether the new engine version disturbs what
// the session is looking at: any shown or focal group whose
// description vanished or whose membership changed. Group ids index
// the session's own pinned engine; comparisons go through descriptions
// (core.GroupTouched), which are the only identity stable across
// versions.
func sessionTouched(cs *clientSession, ne *core.Engine) bool {
	if cs.eng == ne {
		return false
	}
	gids := cs.act.Sess.Shown()
	if f := cs.act.Sess.Focal(); f >= 0 {
		gids = append(gids, f)
	}
	for _, gid := range gids {
		if gid < 0 || gid >= cs.eng.Space.Len() {
			continue
		}
		if core.GroupTouched(cs.eng.Space.Group(gid), ne.Space) {
			return true
		}
	}
	return false
}

// handleDatasetIngest is POST /api/v1/datasets/{name}/ingest: commit a
// batch ({users, actions, seq?}) or, with ?preview=1, dry-run it
// through the streaming lossy-counting miner without committing.
func (s *Server) handleDatasetIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	raw, ok := ReadBody(w, r, MaxIngestBody)
	if !ok {
		return
	}
	b, err := core.DecodeIngestJSON(raw)
	if err != nil {
		http.Error(w, "bad ingest batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	if r.URL.Query().Get("preview") == "1" {
		s.handleIngestPreview(w, name, b)
		return
	}
	res, err := s.cat.ingest(name, b)
	if err != nil {
		status := http.StatusBadRequest
		var pe *persistError
		switch {
		case errors.Is(err, errUnknownDataset):
			status = http.StatusNotFound
		case errors.Is(err, errSeqConflict):
			status = http.StatusConflict
		case errors.As(err, &pe):
			status = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}

// IngestPreviewResult is the ?preview=1 response: the lossy-counting
// candidate itemsets over the augmented dataset. Counts come with the
// Jin & Agrawal bound — nothing ≥ support·N is missing, every count is
// within epsilon·N of true — not the exactness a commit materializes.
type IngestPreviewResult struct {
	Dataset       string           `json:"dataset"`
	EngineVersion uint64           `json:"engineVersion"`
	Support       float64          `json:"support"`
	Epsilon       float64          `json:"epsilon"`
	Candidates    []previewItemset `json:"candidates"`
}

type previewItemset struct {
	Label string `json:"label"`
	Count int    `json:"count"`
	Delta int    `json:"delta"`
}

func (s *Server) handleIngestPreview(w http.ResponseWriter, name string, b core.IngestBatch) {
	eng, err := s.cat.engine(name)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errUnknownDataset) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	cfg := stream.DefaultConfig()
	if frac := eng.Config().MinSupportFrac; frac > cfg.Epsilon {
		cfg.Support = frac
	}
	items, vocab, err := eng.IngestPreview(b, cfg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res := IngestPreviewResult{
		Dataset:       name,
		EngineVersion: eng.Version(),
		Support:       cfg.Support,
		Epsilon:       cfg.Epsilon,
		Candidates:    make([]previewItemset, 0, len(items)),
	}
	for _, it := range items {
		res.Candidates = append(res.Candidates, previewItemset{
			Label: it.Terms.Label(vocab),
			Count: it.Count,
			Delta: it.Delta,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}

// engine resolves a dataset name to its resident engine (building on
// first use), retrying around the acquire/evict race.
func (c *Catalog) engine(name string) (*core.Engine, error) {
	for {
		e, reg, err := c.acquire(name)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		eng := e.eng
		resident := e.reg == reg
		c.mu.Unlock()
		if resident && eng != nil {
			return eng, nil
		}
	}
}
