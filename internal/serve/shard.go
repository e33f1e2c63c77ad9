package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"sort"

	"vexus/internal/telemetry"
)

// This file is the shard half of the cluster protocol (the gateway
// half lives in internal/cluster): a session is an action log, so a
// shard can hand any session to a peer by exporting the log and
// letting the new owner replay it. The gateway owns id assignment —
// /internal/cluster/sessions creates under a caller-chosen id so the
// rendezvous hash of the id and the session's physical placement
// agree — and the export/import pair preserves the mutation counter,
// which keeps the `"<sid>.<mutations>"` ETag stream seamless across a
// migration: replaying n actions leaves the counter at n on any owner.

// ShardSessionInfo is one row of GET /internal/cluster/sessions: where
// a session lives and how far its mutation counter has advanced.
type ShardSessionInfo struct {
	Session   string `json:"session"`
	Dataset   string `json:"dataset"`
	Mutations uint64 `json:"mutations"`
}

// SessionExport is the migration document: everything a new owner
// needs to reconstruct the session byte-identically. Trail is the v2
// saved-session JSON (action.Session.Save) — the complete applied
// action log plus the group-count guard against engine mismatch.
// Mutations is carried redundantly so the importer can
// verify the replayed counter landed exactly where the source left it.
type SessionExport struct {
	Session   string          `json:"session"`
	Dataset   string          `json:"dataset"`
	Mutations uint64          `json:"mutations"`
	Trail     json.RawMessage `json:"trail"`
	// EngineVersion names the engine generation the session is pinned
	// to. The importer replays the trail against this exact version
	// (resolved through the dataset's retained engine history), so a
	// session keeps exploring the generation it started on even when
	// the new owner has ingested past it. Zero — an export from before
	// live datasets — means "current".
	EngineVersion uint64 `json:"engineVersion,omitempty"`
}

// handleShardSessionCreate is POST /internal/cluster/sessions?sid=&dataset=:
// the gateway's create path. Same response contract as POST
// /api/v1/sessions (201, full state, ETag, Location), but the session
// id is the caller's, so the gateway can pick the owning shard by
// hashing the id before the session exists anywhere.
func (s *Server) handleShardSessionCreate(w http.ResponseWriter, r *http.Request) {
	sid := r.FormValue("sid")
	if sid == "" {
		http.Error(w, "missing sid (the gateway assigns cluster session ids)", http.StatusBadRequest)
		return
	}
	cs, err := s.cat.createSession(r.FormValue("dataset"), sid, 0)
	if err != nil {
		writeCreateError(w, err)
		return
	}
	s.writeCreated(w, cs)
}

// handleShardSessionList is GET /internal/cluster/sessions: the
// authoritative residency listing for this shard, sorted by id so the
// gateway's drain/rebalance sweeps are deterministic.
func (s *Server) handleShardSessionList(w http.ResponseWriter, _ *http.Request) {
	sessions := s.cat.allSessions()
	out := make([]ShardSessionInfo, 0, len(sessions))
	for _, cs := range sessions {
		cs.mu.Lock()
		out = append(out, ShardSessionInfo{Session: cs.id, Dataset: cs.dataset, Mutations: cs.act.Mutations})
		cs.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// handleShardExport is GET /internal/cluster/sessions/{sid}/export:
// serialize the session as a migration document. The session stays
// live here — the gateway deletes it only after the new owner has
// imported successfully, so a failed migration strands nothing.
func (s *Server) handleShardExport(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.sessionByID(w, r.PathValue("sid"))
	if !ok {
		return
	}
	cs.mu.Lock()
	var trail bytes.Buffer
	err := cs.act.Save(&trail)
	doc := SessionExport{
		Session:       cs.id,
		Dataset:       cs.dataset,
		Mutations:     cs.act.Mutations,
		Trail:         trail.Bytes(),
		EngineVersion: cs.eng.Version(),
	}
	cs.mu.Unlock()
	if err != nil {
		http.Error(w, "exporting session: "+err.Error(), http.StatusInternalServerError)
		return
	}
	// The trace id is the one the gateway minted for this migration —
	// the same id its import span logs on the destination shard, which
	// is what lets one grep across both shards' logs reconstruct the
	// export→import→delete path.
	s.met.log.Debug("migration",
		"span", "export", "trace", telemetry.TraceID(r.Context()),
		"sid", doc.Session, "dataset", doc.Dataset, "mutations", doc.Mutations)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}

// handleShardImport is POST /internal/cluster/sessions/{sid}/import:
// adopt a migrating session by replaying its exported trail under the
// same id. On success the response is 201 with the full state and the
// ETag — which, because replaying n actions leaves the mutation
// counter at n, is byte-for-byte the validator the source shard last
// served. Any replay divergence (wrong engine, counter mismatch)
// deletes the half-imported session and reports 409: the source still
// holds the live session, so the migration simply failed closed.
func (s *Server) handleShardImport(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("sid")
	// A trail is ~100 bytes per action, so the 1 MiB batch bound would
	// strand any session past ~10k actions on its shard forever; 256
	// MiB keeps the bound nominal (a backstop against a runaway peer,
	// not a size policy).
	raw, ok := ReadBody(w, r, 1<<28)
	if !ok {
		return
	}
	var doc SessionExport
	if err := json.Unmarshal(raw, &doc); err != nil {
		http.Error(w, "bad session export: "+err.Error(), http.StatusBadRequest)
		return
	}
	if doc.Session != sid {
		http.Error(w, "export is for session "+doc.Session+", not "+sid, http.StatusBadRequest)
		return
	}
	if len(doc.Trail) == 0 {
		http.Error(w, "export carries no trail", http.StatusBadRequest)
		return
	}
	cs, err := s.cat.createSession(doc.Dataset, sid, doc.EngineVersion)
	if err != nil {
		writeCreateError(w, err)
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	// Load zeroes the mutation counter before replaying, so the replay
	// ring restarts from event id 1 too: clear the creation-time Start
	// event first and the ring stays contiguous. The OnDiff hook then
	// records every replayed diff, which is what lets a client that was
	// streaming from the old owner resume here with Last-Event-ID and
	// receive exactly the diffs it missed.
	cs.hub.reset()
	if err := cs.act.Load(bytes.NewReader(doc.Trail)); err != nil {
		s.cat.removeSession(sid, reasonDeleted)
		http.Error(w, "replaying trail: "+err.Error(), http.StatusConflict)
		return
	}
	if cs.act.Mutations != doc.Mutations {
		s.cat.removeSession(sid, reasonDeleted)
		http.Error(w, "replay mutation counter diverged from export", http.StatusConflict)
		return
	}
	s.met.log.Debug("migration",
		"span", "import", "trace", telemetry.TraceID(r.Context()),
		"sid", cs.id, "dataset", cs.dataset, "mutations", cs.act.Mutations)
	w.Header().Set("Location", "/api/v1/sessions/"+cs.id)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", cs.etag())
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(s.state(cs))
}

// writeCreateError maps session-creation failures onto the same status
// codes the public create endpoint uses, plus 409 for id collisions
// and unavailable engine versions (only possible on the
// caller-chosen-id paths).
func writeCreateError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errUnknownDataset):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, errDuplicateSession), errors.Is(err, errVersionGone):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, errServerFull), errors.Is(err, errWarming):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
