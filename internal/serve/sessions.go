package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
)

// errServerFull means the dataset is at its session capacity and every
// one of its sessions is recently active, so evicting any of them
// would cut off a live explorer. Callers should surface 503.
var errServerFull = errors.New("session capacity reached and all sessions are active")

// errDuplicateSession means a caller-chosen session id (the cluster
// create/import path) is already live on this server, in any dataset.
// Callers surface 409.
var errDuplicateSession = errors.New("session id already exists")

// errVersionGone means a migration import asked for an engine version
// its dataset no longer retains (restarted or evicted since, or more
// than engineHistoryCap ingests ago). Callers surface 409 — the
// migration fails closed and the source keeps serving.
var errVersionGone = errors.New("engine version no longer resident")

// engineHistoryCap bounds how many superseded engine versions a
// catalog entry retains after ingests. Sessions are pinned to the
// version they started on, and a migrating session must find its
// version on the new owner — every shard ingests the same batches, so
// retaining recent generations makes drain-after-ingest work without
// re-aiming anyone. Engines are immutable and shared, so the cost is
// memory for generations nobody may hold anymore; the cap keeps a
// long-lived server from accreting every generation since start.
const engineHistoryCap = 8

// minEvictIdle is how long a session must have been idle before the
// capacity evictor may take it: without this floor, a burst of
// anonymous session creates would evict every legitimate explorer.
const minEvictIdle = 10 * time.Second

// clientSession is one explorer's isolated state — an action.Session
// (the core session, the open STATS focus view, the mutation counter
// and the action log), guarded by its own mutex so concurrent requests
// to the *same* session serialize while requests to different sessions
// run fully in parallel — the engine underneath is immutable after
// Build and shared by all sessions of the same dataset. Every
// mutation goes through action.Apply, which advances the mutation
// counter the session's state ETag derives from.
type clientSession struct {
	id      string
	dataset string       // catalog name of the dataset this session explores
	eng     *core.Engine // the engine the session runs over

	// hub fans the session's diff stream out to SSE subscribers and
	// holds the Last-Event-ID replay ring. It has its own lock (order:
	// mu before hub.mu); a nonzero subscriber count pins the session
	// against TTL/LRU eviction — an idle-watching analyst mutates
	// nothing, but their stream is live use.
	hub *streamHub

	mu  sync.Mutex
	act *action.Session
}

// etag renders the current validator from the action layer's mutation
// counter; the caller must hold mu. Diff.Mutations carries the same
// number, so a client consuming batch diffs always knows the validator
// its cached state corresponds to.
func (cs *clientSession) etag() string {
	return `"` + cs.id + "." + strconv.FormatUint(cs.act.Mutations, 10) + `"`
}

// sessionEntry is one row of the catalog's session table: the session,
// the catalog entry of its dataset, and its recency stamp. The row is
// guarded by Catalog.mu, not the session mutex, so touching is cheap.
type sessionEntry struct {
	cs       *clientSession
	ds       *catalogEntry
	lastUsed time.Time
}

// NewSessionID mints a fresh 128-bit hex session id. The cluster
// gateway draws its ids here too, so it can place a session on the
// shard its rendezvous hash owns before the session exists.
func NewSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("vexus-server: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// createSession opens a session on the named dataset ("" = default),
// building or loading its engine first when it is not resident. At the
// dataset's capacity (Config.MaxSessions > 0) its least-recently-used
// session is evicted first — an interactive system prefers serving a
// new explorer over preserving an abandoned tab — but only if it has
// been idle at least minEvictIdle: when every session is actively in
// use, create fails with errServerFull instead of letting a creation
// burst evict live explorers. The capacity check runs before session
// construction, so a rejected burst costs a map lookup, not an engine
// walk.
//
// sid "" mints a session id. A caller-chosen id is the cluster path,
// where the gateway picks the id so that rendezvous hashing of the id
// routes every later request to this shard (and migration can
// re-create the session under the same id on a new owner). A live
// session of that id, in any dataset, fails with errDuplicateSession.
//
// version pins the session to an engine generation — the migration
// import path, where the replayed session must keep exploring the
// generation it started on, whatever this shard has ingested since.
// Version 0 (and the current version) selects the current engine; any
// other version resolves through the entry's retained history and
// fails with errVersionGone when it is no longer there.
//
// The residency check and the insert share one hold of c.mu, which is
// also the lock engine eviction runs under, so a new session can never
// land on a dataset that was evicted in between.
func (c *Catalog) createSession(name, sid string, version uint64) (*clientSession, error) {
	if sid == "" {
		sid = NewSessionID()
	}
	cs := &clientSession{id: sid, hub: newStreamHub(c.scfg.StreamQueue, c.scfg.StreamReplay)}
	cs.hub.subsGauge = c.met.streamSubscribers
	cs.hub.drops = c.met.streamDrops
	cs.mu.Lock() // released only once the session is constructed
	c.mu.Lock()
	e, err := c.residentLocked(name)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if _, exists := c.sessions[sid]; exists {
		c.mu.Unlock()
		return nil, errDuplicateSession
	}
	eng := e.eng
	if version != 0 && version != eng.Version() {
		var ok bool
		if eng, ok = e.history[version]; !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: version %d (current %d)", errVersionGone, version, e.eng.Version())
		}
	}
	for c.scfg.MaxSessions > 0 && e.live >= c.scfg.MaxSessions {
		if !c.evictOldestLocked(e) {
			c.mu.Unlock()
			return nil, errServerFull
		}
	}
	cs.dataset, cs.eng = e.name, eng
	c.sessions[sid] = &sessionEntry{cs: cs, ds: e, lastUsed: c.now()}
	e.live++
	c.mu.Unlock()
	// Construct outside the catalog lock: the slot is reserved, and
	// anything that resolves the id meanwhile blocks on cs.mu until
	// the session exists. The initial display is action #1, so a fresh
	// session's ETag is "<sid>.1", exactly like every later mutation.
	// The fan-out hook attaches before the Start so the replay ring is
	// contiguous from event id 1.
	cs.act = action.New(cs.eng, c.gcfg)
	cs.act.OnDiff = cs.hub.publish
	hist := c.met.actionSeconds
	cs.act.Observe = func(op action.Kind, d time.Duration) {
		hist.With(string(op)).Observe(d.Seconds())
	}
	c.met.sessionsCreated.Inc()
	_ = action.ApplyQuiet(cs.act, action.Action{Op: action.Start}) // Start cannot fail
	cs.mu.Unlock()
	return cs, nil
}

// dropLocked deletes one row of the session table; the caller holds
// c.mu and tells the session's streams why.
func (c *Catalog) dropLocked(se *sessionEntry) {
	delete(c.sessions, se.cs.id)
	se.ds.live--
}

// evictOldestLocked removes the least-recently-used session of the
// dataset e if it has been idle at least minEvictIdle, reporting
// whether it evicted; the caller holds c.mu. Sessions with live SSE
// subscribers are pinned — a watching analyst never posts an action,
// so lastUsed goes stale, but reaping under their stream would cut off
// a live explorer. A linear scan is fine: eviction runs only at
// capacity, never on the request fast path. Ties on lastUsed break to
// the smallest sid: many sessions share one stamp under a coarse (or
// injected virtual) clock, and map iteration order must not pick the
// victim.
func (c *Catalog) evictOldestLocked(e *catalogEntry) bool {
	var oldest *sessionEntry
	for _, se := range c.sessions {
		if se.ds != e || se.cs.hub.subscribers() > 0 {
			continue
		}
		if oldest == nil || se.lastUsed.Before(oldest.lastUsed) ||
			(se.lastUsed.Equal(oldest.lastUsed) && se.cs.id < oldest.cs.id) {
			oldest = se
		}
	}
	if oldest == nil || c.now().Sub(oldest.lastUsed) < minEvictIdle {
		return false
	}
	oldest.cs.hub.close(reasonDeleted)
	c.dropLocked(oldest)
	c.met.sessionsEvicted.Inc()
	return true
}

// findSession resolves a session id, refreshing the recency of the
// session and of its dataset's engine.
func (c *Catalog) findSession(sid string) (*clientSession, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	se, ok := c.sessions[sid]
	if !ok {
		return nil, false
	}
	now := c.now()
	se.lastUsed, se.ds.lastUsed = now, now
	return se.cs, true
}

// removeSession deletes a session; unknown ids are a no-op. A handler
// already holding the session's mutex simply finishes its request
// against the now-unreachable session. Attached streams receive a
// terminal `event: closed` carrying reason — "migrated" tells clients
// to reconnect (their session lives on another shard), anything else
// is final.
func (c *Catalog) removeSession(sid, reason string) {
	c.mu.Lock()
	se, ok := c.sessions[sid]
	if ok {
		c.dropLocked(se)
	}
	c.mu.Unlock()
	if ok {
		se.cs.hub.close(reason)
	}
}

// allSessions snapshots every live session — the shard residency
// listing and the ingest notice walk. The slice is a copy, safe to use
// after the lock drops.
func (c *Catalog) allSessions() []*clientSession {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*clientSession, 0, len(c.sessions))
	for _, se := range c.sessions {
		out = append(out, se.cs)
	}
	return out
}

// sweep evicts every session idle longer than the TTL and returns how
// many were dropped. Sessions with live SSE subscribers are pinned,
// whatever their idle age: delivered events are their activity. A TTL
// <= 0 disables sweeping.
func (c *Catalog) sweep() int {
	if c.scfg.SessionTTL <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := c.now().Add(-c.scfg.SessionTTL)
	n := 0
	for _, se := range c.sessions {
		if se.lastUsed.Before(cutoff) && se.cs.hub.subscribers() == 0 {
			se.cs.hub.close(reasonDeleted)
			c.dropLocked(se)
			n++
		}
	}
	c.met.sessionsExpired.Add(uint64(n))
	return n
}

// sweepEvery runs sweep on the given interval until Close.
func (c *Catalog) sweepEvery(interval time.Duration) {
	defer c.sweeper.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.sweep()
		case <-c.stop:
			return
		}
	}
}

// Close stops the TTL sweeper, waits for it to exit, and sends every
// attached stream a terminal `event: closed` (idempotent).
func (c *Catalog) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.sweeper.Wait()
	for _, cs := range c.allSessions() {
		cs.hub.close(reasonClosing)
	}
}
