package serve

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"vexus/internal/core"
	"vexus/internal/store"
)

// This file is the live-dataset write path: POST
// /api/v1/datasets/{name}/ingest folds a batch of new users and
// actions into the named dataset's engine. Ingestion follows the same
// discipline as the action log — batches are sequence-numbered against
// the engine version (batch k applies to version k and produces k+1),
// which makes the endpoint replayable: a retry of an already-applied
// seq is acknowledged without re-applying when it carries the batch
// that seq holds (the lineage digest matches), and refused with 409
// when it carries a different one; a gap is rejected with 409 too. The
// cluster gateway pins one seq across every shard so they all converge
// on the same version, and relies on these checks to catch a stale
// seq it guessed. Every reply names the resulting engine by its chain
// head, so the gateway can also tell apart shards that took different
// batches at one seq.
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

// RejectIngestQuery answers 400 and reports true when an ingest request
// carries a query string. The endpoint has no parameters; the shard and
// the gateway both refuse rather than ignore one, because the only
// query clients ever sent asked for a dry run that is gone, and
// ignoring it would commit the batch.
func RejectIngestQuery(w http.ResponseWriter, r *http.Request) bool {
	if r.URL.RawQuery == "" {
		return false
	}
	http.Error(w, "ingest takes no query parameters (got "+strconv.Quote(r.URL.RawQuery)+"); a batch is always committed", http.StatusBadRequest)
	return true
}

// errSeqConflict marks a batch whose seq the engine cannot take: ahead
// of the engine version (the client skipped a batch), or at a
// committed seq that holds a different batch. Handlers surface 409.
var errSeqConflict = errors.New("ingest seq conflict")

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
	// below the next expected one and already holds this very batch,
	// so nothing changed.
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
	// Head names the engine at EngineVersion: the hex snapshot chain
	// head over the spec's base fingerprint and every batch in its
	// lineage (store.ChainFingerprint). Two shards at one version hold
	// the same engine exactly when their heads match; the gateway
	// compares them, so shards that took different batches at one seq
	// can never pass for converged.
	Head string `json:"head,omitempty"`
}

// ingest commits one batch against the named dataset. The rebuild runs
// under the entry's ingestMu — never under catalog.mu — so exploration
// requests proceed throughout; the engine swap at the end is a pointer
// write under catalog.mu. The engine the rebuild starts from is the
// residency token: the swap happens only if the entry still holds it.
func (c *Catalog) ingest(name string, b core.IngestBatch) (IngestResult, error) {
	for {
		e, cur, err := c.acquire(name)
		if err != nil {
			return IngestResult{}, err
		}
		e.ingestMu.Lock()
		c.mu.Lock()
		if e.eng != cur {
			// Evicted, or moved on by another ingest, between acquire
			// and here: resolve the current engine and retry.
			c.mu.Unlock()
			e.ingestMu.Unlock()
			continue
		}
		baseFP, snap := e.baseFP, e.snap
		c.mu.Unlock()
		res, err := c.applyIngest(e, cur, baseFP, snap, b)
		e.ingestMu.Unlock()
		return res, err
	}
}

// applyIngest is the seq check → rebuild → persist → swap → notify
// ladder; the caller holds e.ingestMu (and nothing else).
func (c *Catalog) applyIngest(e *catalogEntry, cur *core.Engine, baseFP store.Fingerprint, snap string, b core.IngestBatch) (IngestResult, error) {
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
		// A replayed seq. Acknowledge it without touching anything
		// when it carries the batch already folded in at that seq —
		// that is what makes gateway retries and crash-recovery replays
		// safe. A different batch at a committed seq would otherwise
		// have its rows silently dropped.
		if cur.Lineage()[b.Seq-1] != b.Digest() {
			return res, fmt.Errorf("%w: seq %d already holds a different batch", errSeqConflict, b.Seq)
		}
		res.Seq = b.Seq
		res.AlreadyApplied = true
		res.Groups = cur.Space.Len()
		head := store.ChainFingerprint(baseFP, cur.Lineage())
		res.Head = hex.EncodeToString(head[:])
		return res, nil
	case b.Seq > next:
		return res, fmt.Errorf("%w: batch seq %d ahead of next expected %d", errSeqConflict, b.Seq, next)
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
	head := store.ChainFingerprint(baseFP, ne.Lineage())
	if snap != "" {
		if aerr := store.AppendDeltaFile(snap, b, head); aerr != nil {
			if serr := store.SaveFile(snap, ne, baseFP); serr != nil {
				return res, &persistError{fmt.Errorf("append delta: %v; rewrite snapshot: %w", aerr, serr)}
			}
		}
	}

	res.NewGroups, res.ChangedGroups = core.DiffSpaces(cur.Space, ne.Space)

	swapStart := time.Now()
	c.mu.Lock()
	resident := e.eng == cur
	if resident {
		// New sessions start on ne from here on; the outgoing engine
		// joins the bounded history, where migration imports pinned to
		// it can still find it. Each ingest adds one to the version, so
		// the entry that falls out is exactly engineHistoryCap back.
		if e.history == nil {
			e.history = make(map[uint64]*core.Engine)
		}
		e.history[cur.Version()] = cur
		delete(e.history, cur.Version()-engineHistoryCap)
		e.eng = ne
		e.lastUsed = c.now()
	}
	c.mu.Unlock()

	res.EngineVersion = ne.Version()
	res.Groups = ne.Space.Len()
	res.Head = hex.EncodeToString(head[:])

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
	c.met.ingestSwap.Observe(time.Since(swapStart).Seconds())
	res.Notified = c.notifyTouched(e.name, ne, b.Seq)
	c.met.log.Info("ingest committed",
		"dataset", e.name, "seq", res.Seq, "version", res.EngineVersion,
		"users", res.Users, "actions", res.Actions, "notified", res.Notified)
	return res, nil
}

// notifyTouched sends the advisory notice to exactly the sessions of
// the dataset whose current display intersects the change. The event
// carries no id — writeSSE omits the id line — so it never advances a
// client's Last-Event-ID cursor and the session's diff stream and ETags
// remain seamless; clients treat it as "the dataset moved on, start a
// fresh session to see version N".
func (c *Catalog) notifyTouched(dataset string, ne *core.Engine, seq uint64) int {
	data, _ := json.Marshal(struct {
		Dataset       string `json:"dataset"`
		EngineVersion uint64 `json:"engineVersion"`
		Seq           uint64 `json:"seq"`
		Reason        string `json:"reason"`
	}{dataset, ne.Version(), seq, "dataset updated"})
	ev := streamEvent{name: "notice", data: data}
	n := 0
	for _, cs := range c.allSessions() {
		if cs.dataset != dataset {
			continue
		}
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
		if core.GroupTouched(cs.eng.Space, gid, ne.Space) {
			return true
		}
	}
	return false
}

// handleDatasetIngest is POST /api/v1/datasets/{name}/ingest: commit a
// batch ({users, actions, seq?}). A query string is refused with 400
// (RejectIngestQuery).
func (s *Server) handleDatasetIngest(w http.ResponseWriter, r *http.Request) {
	if RejectIngestQuery(w, r) {
		return
	}
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
