package loadsim

import (
	"fmt"
	"strings"
)

// Summary is the deterministic result of one Run: identical Configs
// (Workers excluded) marshal to byte-identical JSON at any worker
// count. Every field is accumulated in fixed sequential order; no
// wall-clock quantity appears.
type Summary struct {
	// Echoed configuration (Workers deliberately absent).
	Live   int    `json:"live"`
	Shards int    `json:"shards"`
	Ticks  int    `json:"ticks"`
	Seed   uint64 `json:"seed"`
	Chaos  string `json:"chaos"`

	// Workload volume.
	LiveCreates   int `json:"live_creates"`
	CreateRetries int `json:"create_retries"`

	// Availability and loss under chaos.
	UnavailableLive int            `json:"unavailable_live"`
	SessionsLost    int            `json:"sessions_lost"`
	LostByCause     map[string]int `json:"lost_by_cause"`
	BadBatches      int            `json:"bad_batches"`
	OtherErrors     int            `json:"other_errors"`

	// Fail-closed invariants: all zero on a correct cluster.
	MisroutedSessions int  `json:"misrouted_sessions"`
	EtagBreaks        int  `json:"etag_breaks"`
	EpochViolations   int  `json:"epoch_violations"`
	ChaosErrors       int  `json:"chaos_errors"`
	AuditFailures     int  `json:"audit_failures"`
	FailOpenSessions  int  `json:"fail_open_sessions"`
	RestartPreserved  bool `json:"restart_epoch_preserved"`

	// Chaos accounting.
	ChaosApplied   []string `json:"chaos_applied"`
	Restarts       int      `json:"restarts"`
	RestartLost    int      `json:"restart_lost"`
	DrainMoved     int      `json:"drain_moved"`
	DrainMovedLive int      `json:"drain_moved_live"`
	ReplayedMut    uint64   `json:"replayed_mutations"`

	// Server-side counters (each shard's telemetry registry, sorted-shard
	// order; killed shards included, since the registry sits behind no
	// chaos switch).
	EngineEvictions uint64 `json:"engine_evictions"`
	SessionsEvicted uint64 `json:"sessions_evicted"`

	// SSE delivery.
	SSEStarted    int            `json:"sse_started"`
	SSEFailed     int            `json:"sse_failed"`
	SSEDelivered  uint64         `json:"sse_events_delivered"`
	SSECloseCount map[string]int `json:"sse_closed_by_reason"`

	AuditedOK  int    `json:"audited_ok"`
	EpochFinal uint64 `json:"epoch_final"`
}

// summary assembles the Summary after the final audit. All folds run
// in sorted-shard or stream-creation order so float accumulation is
// reproducible.
func (h *harness) summary() *Summary {
	s := &Summary{
		Live:   h.cfg.Live,
		Shards: h.cfg.Shards,
		Ticks:  h.cfg.Ticks,
		Seed:   h.cfg.Seed,
		Chaos:  h.cfg.Chaos,

		LiveCreates:   h.liveCreates,
		CreateRetries: h.createRetries,

		UnavailableLive: h.unavailableLive,
		SessionsLost:    h.lost,
		LostByCause:     h.lostByCause,
		BadBatches:      h.badBatches,
		OtherErrors:     h.otherErrors,

		MisroutedSessions: h.misrouted,
		EtagBreaks:        h.etagBreaks,
		EpochViolations:   h.epochViolations,
		ChaosErrors:       h.chaosErrors,
		AuditFailures:     h.auditFailures,
		FailOpenSessions:  h.failOpenSessions,
		RestartPreserved:  h.restartEpochPreserved,

		ChaosApplied:   append([]string{}, h.chaosApplied...),
		Restarts:       h.restarts,
		RestartLost:    h.restartLost,
		DrainMoved:     h.drainMovedReal,
		DrainMovedLive: h.drainMovedLive,
		ReplayedMut:    h.replayedMut,

		SSEStarted:    h.sseStarted,
		SSEFailed:     h.sseFailed,
		SSECloseCount: map[string]int{},

		AuditedOK:  h.auditedOK,
		EpochFinal: h.gw.Epoch(),
	}

	for _, name := range h.names {
		snap := h.nodes[name].telem.Snapshot()
		s.EngineEvictions += uint64(snap["vexus_engine_evictions_total"])
		s.SessionsEvicted += uint64(snap["vexus_sessions_evicted_total"])
	}

	for _, st := range h.streams {
		_, events, reason, closed := st.snapshotState()
		s.SSEDelivered += events
		switch {
		case !closed:
			reason = "open"
		case reason == "":
			reason = "client closed" // harness cancel, no terminal frame
		}
		s.SSECloseCount[reason]++
	}
	return s
}

// FailClosed returns nil when s records no fail-closed violation, and
// otherwise an error naming every violated condition by its JSON key.
// A correct cluster never misroutes a session, breaks ETag continuity,
// moves the epoch out of step with the topology, fails a chaos op or
// the final audit, answers for a lost session, loses the epoch across
// a gateway restart, rejects a well-formed action batch, or answers
// with a status the harness does not expect.
func (s *Summary) FailClosed() error {
	var bad []string
	for _, c := range []struct {
		key string
		n   int
	}{
		{"misrouted_sessions", s.MisroutedSessions},
		{"etag_breaks", s.EtagBreaks},
		{"epoch_violations", s.EpochViolations},
		{"chaos_errors", s.ChaosErrors},
		{"audit_failures", s.AuditFailures},
		{"fail_open_sessions", s.FailOpenSessions},
		{"bad_batches", s.BadBatches},
		{"other_errors", s.OtherErrors},
	} {
		if c.n != 0 {
			bad = append(bad, fmt.Sprintf("%s=%d", c.key, c.n))
		}
	}
	if !s.RestartPreserved {
		bad = append(bad, "restart_epoch_preserved=false")
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%d fail-closed violation(s): %s", len(bad), strings.Join(bad, ", "))
}
