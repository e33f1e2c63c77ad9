package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"vexus/internal/core"
	"vexus/internal/dataset"
	"vexus/internal/greedy"
	"vexus/internal/store"
	"vexus/internal/telemetry"
)

// This file is the shard half of warm joins. A joining shard must not
// serve (or even build) an engine of its own: it receives the cluster's
// engine as a snapshot stream — written by a current member with
// store.Save, relayed by the gateway — and installs it only after
// store.LoadFreshBytes has verified the header fingerprint against the
// chain of the shard's *locally computed* base fingerprint and the
// lineage the stream records. The joiner's own dataset + config is the
// root of trust: a stream for the wrong dataset, a different pipeline
// config, a truncated transfer, or a torn section can never install.
//
//	GET  /internal/cluster/snapshot?dataset=  (donor: stream the engine)
//	POST /internal/cluster/warm?dataset=      (joiner: verify + install)
//
// Both are cluster-internal and sit behind the shared-secret gate with
// the rest of /internal/cluster/*.

// errWarming marks a dataset that is configured warm-only (-warm) and
// has not received its snapshot yet; handlers surface it as 503, which
// keeps the joiner failing readiness — and refusing sessions — until
// the stream has verified. That is the fail-closed half of the warm
// join: a joiner that never gets its snapshot simply never serves.
var errWarming = errors.New("dataset awaiting warm-join snapshot")

// maxWarmSnapshot bounds how much of a streamed snapshot the warm
// handler will buffer — a backstop against a runaway or hostile peer,
// not a size policy (the largest benchmark engines are two orders of
// magnitude smaller). A longer stream is cut and fails verification.
const maxWarmSnapshot = 1 << 31

// NewPending builds a warm-only shard server: it knows its dataset (so
// it can verify the incoming stream's fingerprint chain) but will not
// build an engine — the engine must arrive as a verified snapshot
// stream on POST /internal/cluster/warm. Until then every session
// create and readiness probe answers 503.
func NewPending(name string, d *dataset.Dataset, pcfg core.PipelineConfig, gcfg greedy.Config, scfg Config) *Server {
	c := &Catalog{
		gcfg:        gcfg,
		scfg:        scfg,
		workers:     pcfg.Workers,
		defaultName: name,
		entries:     map[string]*catalogEntry{},
		now:         time.Now,
	}
	c.met = newServerMetrics(scfg.Telemetry, scfg.Logger, c)
	c.entries[name] = &catalogEntry{name: name, pendingData: d, pendingCfg: pcfg}
	return &Server{
		cat:       c,
		met:       c.met,
		shardAPI:  scfg.ShardAPI,
		secret:    scfg.ClusterSecret,
		heartbeat: heartbeatOrDefault(scfg),
	}
}

// warmCoordinates resolves the dataset name to what verification
// needs: the spec dataset and pipeline config (the fingerprint roots)
// plus the snapshot path future ingests should append to ("" =
// in-memory only).
func (c *Catalog) warmCoordinates(name string) (*dataset.Dataset, core.PipelineConfig, string, error) {
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		return nil, core.PipelineConfig{}, "", fmt.Errorf("%w %q", errUnknownDataset, name)
	}
	if e.pendingData != nil {
		d, pcfg := e.pendingData, e.pendingCfg
		c.mu.Unlock()
		return d, pcfg, "", nil
	}
	spec := e.spec
	c.mu.Unlock()
	d, encode, err := c.loadSpecData(spec)
	if err != nil {
		return nil, core.PipelineConfig{}, "", err
	}
	pcfg := core.DefaultPipelineConfig()
	pcfg.Encode = encode
	pcfg.MinSupportFrac = spec.MinSup
	if pcfg.MinSupportFrac == 0 {
		pcfg.MinSupportFrac = 0.02
	}
	pcfg.Workers = c.workers
	snap := ""
	if c.dir != "" {
		snap = filepath.Join(c.dir, name+".snap")
	}
	return d, pcfg, snap, nil
}

// handleShardSnapshot is GET /internal/cluster/snapshot?dataset=: the
// donor side of a warm join. The resident engine streams out through
// store.Save — header stamped with the chain of the base fingerprint
// and the engine's lineage, so the receiver can verify it end to end.
// A dataset without a recorded base fingerprint (an engine handed to
// serve.New mid-lineage) refuses: it cannot produce an attestable
// stream.
func (s *Server) handleShardSnapshot(w http.ResponseWriter, r *http.Request) {
	e, _, err := s.cat.acquire(r.FormValue("dataset"))
	if err != nil {
		writeCreateError(w, err)
		return
	}
	s.cat.mu.Lock()
	eng, baseFP := e.eng, e.baseFP
	s.cat.mu.Unlock()
	if eng == nil {
		http.Error(w, "engine not resident", http.StatusServiceUnavailable)
		return
	}
	if baseFP == (store.Fingerprint{}) {
		http.Error(w, "dataset has no recorded base fingerprint; cannot stream a verifiable snapshot", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Vexus-Dataset", e.name)
	w.Header().Set("X-Vexus-Engine-Version", strconv.FormatUint(eng.Version(), 10))
	if err := store.Save(w, eng, baseFP); err != nil {
		// Headers are gone; all we can do is log and let the truncated
		// stream fail verification on the receiving side — which it
		// will, by construction.
		s.met.log.Warn("warm join: streaming snapshot failed", "dataset", e.name, "err", err)
	}
}

// WarmResult is the POST /internal/cluster/warm response body — the
// gateway decodes it to meter warm-join transfer size.
type WarmResult struct {
	Dataset       string `json:"dataset"`
	EngineVersion uint64 `json:"engineVersion"`
	Bytes         int    `json:"bytes"`
	// AlreadyResident reports a no-op: the shard had the engine (warm
	// joins against an already-running member are idempotent).
	AlreadyResident bool `json:"alreadyResident,omitempty"`
}

// handleShardWarm is POST /internal/cluster/warm?dataset=: the joiner
// side. The body is a snapshot stream; it installs only if
// store.LoadFreshBytes verifies its fingerprint chain against this
// shard's own dataset + config. Every failure leaves the entry
// exactly as it was — pending stays pending, resident stays resident —
// so a killed or corrupt stream cannot move the shard toward serving.
func (s *Server) handleShardWarm(w http.ResponseWriter, r *http.Request) {
	name := r.FormValue("dataset")
	if name == "" {
		name = s.cat.defaultName
	}
	s.cat.mu.Lock()
	e, ok := s.cat.entries[name]
	if !ok {
		s.cat.mu.Unlock()
		http.Error(w, "unknown dataset "+name, http.StatusNotFound)
		return
	}
	s.cat.mu.Unlock()

	// ingestMu is the entry's slow-operation lock: one warm install at
	// a time, and never interleaved with an ingest rebuild.
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()

	s.cat.mu.Lock()
	resident := e.eng
	s.cat.mu.Unlock()
	if resident != nil {
		// Drain the stream before answering so the donor's Save doesn't
		// see its pipe closed mid-write and log a spurious failure.
		_, _ = io.Copy(io.Discard, r.Body)
		writeJSON(w, http.StatusOK, WarmResult{
			Dataset: name, EngineVersion: resident.Version(), AlreadyResident: true,
		})
		return
	}

	d, pcfg, snap, err := s.cat.warmCoordinates(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	baseFP := store.ComputeFingerprint(d, pcfg)
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxWarmSnapshot))
	if err != nil {
		http.Error(w, "reading snapshot stream: "+err.Error(), http.StatusBadRequest)
		return
	}
	workers := s.cat.workers
	if workers == 0 {
		workers = pcfg.Workers
	}
	eng, err := store.LoadFreshBytes(raw, baseFP, workers)
	if err != nil {
		s.met.log.Warn("warm join: snapshot rejected", "dataset", name, "bytes", len(raw), "err", err)
		http.Error(w, "snapshot failed verification: "+err.Error(), http.StatusConflict)
		return
	}

	s.cat.mu.Lock()
	if e.eng == nil {
		e.eng, e.warm, e.lastUsed = eng, true, s.cat.now()
		e.baseFP, e.snap = baseFP, snap
		e.reg = s.cat.newRegistry(name, eng)
		e.err = nil
	}
	installed := e.eng
	s.cat.mu.Unlock()
	s.met.log.Info("warm join: snapshot installed", "dataset", name,
		"bytes", len(raw), "engineVersion", installed.Version())
	writeJSON(w, http.StatusOK, WarmResult{
		Dataset: name, EngineVersion: installed.Version(), Bytes: len(raw),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// LoadInfo reports this server's gossip metadata: live session count
// and per-dataset resident engine versions — what the membership
// announcer stamps on every heartbeat.
func (s *Server) LoadInfo() (int, map[string]uint64) {
	total, _ := s.cat.sessionCount()
	engines := map[string]uint64{}
	s.cat.mu.Lock()
	for name, e := range s.cat.entries {
		if e.eng != nil {
			engines[name] = e.eng.Version()
		}
	}
	s.cat.mu.Unlock()
	return total, engines
}

// Telemetry exposes the server's metric registry, so process wiring
// (cmd/vexus-server) can register instruments — the heartbeat RTT
// histogram — on the same registry the shard exposes and the gateway
// rolls up.
func (s *Server) Telemetry() *telemetry.Registry { return s.met.reg }
