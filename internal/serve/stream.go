package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vexus/internal/action"
	"vexus/internal/telemetry"
)

// This file is the server-push half of the exploration loop: every
// mutation already yields an action.Diff whose Mutations counter is
// the state validator (`"<sid>.<mutations>"`), so GET
// /api/v1/sessions/{sid}/events turns the validator stream into an SSE
// stream — each event's id IS the post-action mutation counter, which
// makes Last-Event-ID resume and If-None-Match revalidation the same
// cursor. N clients attached to one session see the same diff
// sequence in the same order (the action dispatcher serializes writes
// under the session lock), which is what makes collaborative
// exploration converge byte-identically.
//
// Backpressure follows the bounded-send-queue discipline of
// peer-routed gossip (SNIPPETS §1, tendermint's sendQueueCapacity): a
// publisher NEVER blocks on a subscriber. Each subscriber owns a
// bounded queue; overflow marks the subscriber lost, its stale queue
// is abandoned, and the serving goroutine drops it back in with one
// full-snapshot `resync` event — the slow client pays with a snapshot,
// the action write path pays nothing.

// Stream tuning defaults (Config.StreamQueue / StreamReplay override
// the first two).
const (
	// defaultStreamQueue bounds one subscriber's in-flight event queue.
	defaultStreamQueue = 32
	// defaultStreamReplay bounds the per-session ring of recent diff
	// events kept for Last-Event-ID resume; gaps beyond it resync.
	defaultStreamReplay = 256
	// streamHeartbeat paces SSE comment keepalives.
	streamHeartbeat = 15 * time.Second
)

// Teardown reasons carried by the terminal `event: closed` frame.
// "migrated" tells a client its session lives on (reconnect with
// Last-Event-ID and the new owner's replayed ring resumes the diff
// stream); every other reason is final.
const (
	reasonDeleted  = "deleted"
	reasonMigrated = "migrated"
	reasonEvicted  = "dataset evicted"
	reasonClosing  = "server closing"
)

// streamEvent is one SSE frame: the event id (the mutation counter
// after the action), the event name and the pre-encoded JSON payload.
// Payloads are encoded once at publish time, not per subscriber.
type streamEvent struct {
	id   uint64
	name string
	data []byte
}

// subscriber is one attached SSE client. The queue is bounded; lost is
// closed (once) when a publish found it full, and closed is closed
// when the session itself is torn down (reason says why).
type subscriber struct {
	queue    chan streamEvent
	lost     chan struct{}
	lostOnce sync.Once
	closed   chan struct{}
	reason   string
}

// markLost flags a subscriber whose queue overflowed; drops counts the
// transition exactly once per subscriber (nil-safe).
func (sub *subscriber) markLost(drops *telemetry.Counter) {
	sub.lostOnce.Do(func() {
		close(sub.lost)
		drops.Inc()
	})
}

// streamHub fans one session's diff events out to its subscribers and
// keeps the bounded replay ring behind Last-Event-ID resume. Lock
// order: a caller holding the session mutex may take hub.mu, never the
// reverse — publish runs under both (OnDiff fires inside Apply under
// the session lock), so a subscriber registered under both locks can
// never miss or double-see an event around its registration point.
type streamHub struct {
	// subsGauge / drops are the hub's telemetry instruments, handed
	// over by createSession. Both are nil-safe no-ops when unset
	// (direct hub construction in tests), so hub code calls them
	// unconditionally.
	subsGauge *telemetry.Gauge
	drops     *telemetry.Counter

	mu       sync.Mutex
	subs     map[*subscriber]struct{}
	ring     []streamEvent // contiguous ids, oldest first
	ringCap  int
	queueCap int
	closed   bool
	reason   string
}

func newStreamHub(queueCap, ringCap int) *streamHub {
	if queueCap <= 0 {
		queueCap = defaultStreamQueue
	}
	if ringCap <= 0 {
		ringCap = defaultStreamReplay
	}
	return &streamHub{
		subs:     make(map[*subscriber]struct{}),
		ringCap:  ringCap,
		queueCap: queueCap,
	}
}

// publish encodes one diff event, records it in the replay ring and
// fans it out. Non-blocking by contract: a full subscriber queue marks
// that subscriber lost (it will drop to a snapshot resync) instead of
// ever stalling the action write path.
func (h *streamHub) publish(res action.Result) {
	data, err := json.Marshal(res.Diff)
	if err != nil {
		return // Diff is plain data; cannot happen
	}
	ev := streamEvent{id: res.Diff.Mutations, name: "diff", data: data}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if len(h.ring) == h.ringCap {
		copy(h.ring, h.ring[1:])
		h.ring[len(h.ring)-1] = ev
	} else {
		h.ring = append(h.ring, ev)
	}
	for sub := range h.subs {
		select {
		case sub.queue <- ev:
		default:
			sub.markLost(h.drops)
		}
	}
}

// broadcast fans an out-of-band advisory event (id 0, so it never
// moves a client's resume cursor) to the current subscribers without
// recording it in the replay ring — ingest-triggered notices are
// ephemeral: a client that attaches later sees the new catalog state
// anyway, and replaying a stale "your dataset changed" would only
// confuse resume. Same non-blocking contract as publish.
func (h *streamHub) broadcast(ev streamEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for sub := range h.subs {
		select {
		case sub.queue <- ev:
		default:
			sub.markLost(h.drops)
		}
	}
}

// subscribe registers a fresh subscriber, replacing old (nil on first
// attach) in the same critical section so the swap can never skip or
// duplicate an event. Returns nil when the hub is already closed.
func (h *streamHub) subscribe(old *subscriber) *subscriber {
	h.mu.Lock()
	defer h.mu.Unlock()
	if old != nil {
		if _, present := h.subs[old]; present {
			delete(h.subs, old)
			h.subsGauge.Dec()
		}
	}
	if h.closed {
		return nil
	}
	sub := &subscriber{
		queue:  make(chan streamEvent, h.queueCap),
		lost:   make(chan struct{}),
		closed: make(chan struct{}),
	}
	h.subs[sub] = struct{}{}
	h.subsGauge.Inc()
	return sub
}

// unsubscribe detaches a subscriber (client gone, handler returning).
// The gauge moves only when the subscriber was still attached — hub
// close already detached (and counted) everyone it tore down.
func (h *streamHub) unsubscribe(sub *subscriber) {
	if sub == nil {
		return
	}
	h.mu.Lock()
	if _, present := h.subs[sub]; present {
		delete(h.subs, sub)
		h.subsGauge.Dec()
	}
	h.mu.Unlock()
}

// tailAfter returns the ring events with id > after when the ring
// still covers that gap contiguously; ok=false means the gap exceeds
// the replay window and the caller must resync from a snapshot.
func (h *streamHub) tailAfter(after uint64) ([]streamEvent, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.ring) == 0 {
		return nil, false
	}
	last := h.ring[len(h.ring)-1].id
	if after >= last {
		return nil, after == last
	}
	first := h.ring[0].id
	if after+1 < first {
		return nil, false
	}
	out := make([]streamEvent, 0, last-after)
	for _, ev := range h.ring {
		if ev.id > after {
			out = append(out, ev)
		}
	}
	return out, true
}

// subscribers reports how many clients are attached — the eviction
// pin: a session with live streams is in active use even when its
// analyst mutates nothing.
func (h *streamHub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// reset clears the replay ring (subscribers stay attached). The
// migration import path uses it right before replaying a trail whose
// counter restarts at zero, so the replayed ring is contiguous again.
func (h *streamHub) reset() {
	h.mu.Lock()
	h.ring = h.ring[:0]
	h.mu.Unlock()
}

// close tears the hub down: every subscriber's serving goroutine sends
// one terminal `event: closed` carrying the reason, then hangs up.
// Idempotent; the first reason wins.
func (h *streamHub) close(reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	h.reason = reason
	for sub := range h.subs {
		sub.reason = reason
		close(sub.closed)
		delete(h.subs, sub)
		h.subsGauge.Dec()
	}
}

// writeSSE emits one frame. The id line precedes data so the client's
// lastEventId always tracks the last delivered diff; terminal closed
// frames carry no id, leaving the resume cursor on the last diff.
func writeSSE(w io.Writer, ev streamEvent) error {
	if ev.id > 0 {
		if _, err := fmt.Fprintf(w, "id: %d\n", ev.id); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
	return err
}

func closedEvent(reason string) streamEvent {
	data, _ := json.Marshal(struct {
		Reason string `json:"reason"`
	}{reason})
	return streamEvent{name: "closed", data: data}
}

// lastEventID extracts the resume cursor: the Last-Event-ID header an
// EventSource reconnect sends, or the ?lastEventID= query parameter
// for first attaches that already hold state at a known validator.
func lastEventID(r *http.Request) (uint64, bool) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("lastEventID")
	}
	if raw == "" {
		return 0, false
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// resyncLocked renders the session's full state as one `resync` event
// with the current mutation counter as its id — the recovery frame for
// fresh attaches, gaps beyond the replay ring, and dropped slow
// subscribers. Caller holds cs.mu.
func (s *Server) resyncLocked(cs *clientSession) streamEvent {
	data, _ := json.Marshal(s.state(cs))
	return streamEvent{id: cs.act.Mutations, name: "resync", data: data}
}

// handleV1Events is GET /api/v1/sessions/{sid}/events: the SSE diff
// stream. Every event's id is the post-action mutation counter (the
// ETag suffix), `event: diff` payloads are action.Diff bodies, and the
// contract is:
//
//   - no Last-Event-ID        → one `resync` (full state snapshot,
//     id = current counter), then live diffs;
//   - Last-Event-ID within    → the missed diffs, exactly once, in
//     the replay ring           order, then live diffs;
//   - gap beyond the ring, or → one `resync`, then live diffs;
//     a slow subscriber whose
//     bounded queue overflowed
//   - session torn down       → terminal `event: closed` with a
//     (delete, migration,       reason; "migrated" means reconnect
//     dataset eviction,         with Last-Event-ID to resume on the
//     shutdown)                 new owner.
//
// A slow client never blocks the write path: its queue is bounded and
// overflow drops it to a resync, never the publisher.
func (s *Server) handleV1Events(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.sessionByID(w, r.PathValue("sid"))
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusInternalServerError)
		return
	}
	after, resume := lastEventID(r)

	// Register under the session lock: no action can be applied (hence
	// no event published) between computing the preload and the
	// subscriber joining the live fan-out.
	cs.mu.Lock()
	sub := cs.hub.subscribe(nil)
	var preload []streamEvent
	resumed := false
	if sub != nil {
		if resume {
			if tail, covered := cs.hub.tailAfter(after); covered {
				preload = tail
				resumed = true
			} else {
				preload = []streamEvent{s.resyncLocked(cs)}
			}
		} else {
			preload = []streamEvent{s.resyncLocked(cs)}
		}
	}
	cs.mu.Unlock()
	if sub != nil && s.met != nil {
		if resumed {
			s.met.streamResumes.Inc()
		} else {
			s.met.streamResyncs.Inc()
		}
	}
	if sub == nil {
		http.Error(w, "session is shutting down", http.StatusNotFound)
		return
	}
	defer func() { cs.hub.unsubscribe(sub) }()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for _, ev := range preload {
		if writeSSE(w, ev) != nil {
			return
		}
	}
	fl.Flush()

	hb := time.NewTicker(streamHeartbeat)
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-hb.C:
			if _, err := io.WriteString(w, ":hb\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-sub.lost:
			// Queue overflowed: abandon the stale queue and rejoin with
			// a snapshot. Swap + render under cs.mu so the resync id and
			// the new queue's first event are contiguous.
			cs.mu.Lock()
			next := cs.hub.subscribe(sub)
			var ev streamEvent
			if next != nil {
				ev = s.resyncLocked(cs)
			}
			cs.mu.Unlock()
			if next != nil && s.met != nil {
				s.met.streamResyncs.Inc()
			}
			if next == nil {
				_ = writeSSE(w, closedEvent(cs.hub.reason))
				fl.Flush()
				return
			}
			sub = next
			if writeSSE(w, ev) != nil {
				return
			}
			fl.Flush()
		case <-sub.closed:
			_ = writeSSE(w, closedEvent(sub.reason))
			fl.Flush()
			return
		case ev := <-sub.queue:
			if writeSSE(w, ev) != nil {
				return
			}
			fl.Flush()
		}
	}
}
