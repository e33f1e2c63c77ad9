package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vexus/internal/membership"
)

// The roster is the gateway's one member table, keyed by member name.
// Each entry holds what the member announced and the gateway's verdict
// on it (liveness state, last heartbeat), the gateway's client for it
// (nil while it has no dialable address) and its draining mark. Every
// routing question — who owns a session, who may take new ones, who is
// down — is answered from this map, and the route table persists it.
//
// The epoch advances exactly when the routing set changes: a member
// joins, leaves, is marked down by failure detection, or recovers.
// Metadata refreshes (a heartbeat updating load numbers) do not bump
// it. Because rendezvous hashing (hash.go) is a pure function of the
// member-name set, two gateways holding the same epoch hold the same
// routing set and therefore place every session id identically.
//
// The roster persists itself (atomic temp+rename, like the snapshot
// store) on every epoch bump and state transition, and openRoster
// reloads it on restart — so a restarted gateway resumes routing at the
// saved epoch without asking a single shard anything.
//
// Failure detection is deliberately simple push-style gossip: a member
// unheard-of for SuspectAfter is suspected (still routable — suspicion
// is a warning, not a verdict), and for DownAfter is marked down and
// leaves the routing set. A down member that heartbeats again recovers.
// Members seeded from a static -shards list are exempt until their
// first heartbeat: a static deployment without announcers must keep
// working exactly as before.

// member is one roster entry.
type member struct {
	// MemberInfo is the persisted part: the announced record and state.
	membership.MemberInfo
	lastSeen time.Time // zero: static member that never heartbeated
	shard    *Shard    // nil while the member has no dialable address
	draining bool      // Drain in progress: no new sessions
}

// routable reports whether the member is in the routing set: it has a
// client and is not marked down. Suspects stay routable: suspicion is
// an early warning, and evicting on it would let one late heartbeat
// thrash the epoch (and migrate sessions) back and forth. placing
// narrows the set to members accepting new sessions (not draining).
func (m *member) routable(placing bool) bool {
	return m.shard != nil && m.State != membership.StateDown && !(placing && m.draining)
}

// transition is one failure-detection state change reported by Sweep.
type transition struct {
	Name string
	From membership.State
	To   membership.State
	// Epoch is the roster epoch after the transition.
	Epoch uint64
}

// errUnknownShard rejects an operation naming a member the roster does
// not hold — including a heartbeat from one never admitted: joining is
// an explicit, warm operation (the gateway streams an engine snapshot
// first), never a side effect of gossip.
var errUnknownShard = errors.New("cluster: unknown shard")

// roster is safe for concurrent use. Its lock is held across the route
// table's file write, so the request path takes it only to place a
// session that has no route yet; a routed request reads its route,
// which holds the client.
type roster struct {
	path         string
	suspectAfter time.Duration
	downAfter    time.Duration
	log          *slog.Logger
	clock        func() time.Time
	dial         func(name, addr string) *Shard

	mu      sync.Mutex
	epoch   uint64
	members map[string]*member
}

// tableDoc is the persisted JSON shape.
type tableDoc struct {
	Version int                     `json:"version"`
	Epoch   uint64                  `json:"epoch"`
	Members []membership.MemberInfo `json:"members"`
}

const tableVersion = 1

// openRoster creates a roster from the gateway's membership settings,
// reloading the table at cfg.RoutesPath when that names an existing
// file. Reloaded members are dialed from their saved address (a client
// is only constructed — no request leaves the gateway) and keep their
// state — in particular a member marked down stays down (and out of
// routing) until it heartbeats — except that suspicion does not survive
// a restart: a suspect reloads as alive with a fresh grace period,
// since the silence may have been the gateway's own downtime.
func openRoster(cfg GatewayConfig) (*roster, error) {
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 6 * time.Second
	}
	if cfg.DownAfter < cfg.SuspectAfter {
		if cfg.DownAfter > 0 {
			cfg.DownAfter = cfg.SuspectAfter
		} else {
			cfg.DownAfter = 20 * time.Second
		}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func(name, addr string) *Shard {
			if addr == "" {
				return nil
			}
			return RemoteShard(name, addr)
		}
	}
	r := &roster{
		path:         cfg.RoutesPath,
		suspectAfter: cfg.SuspectAfter,
		downAfter:    cfg.DownAfter,
		log:          cfg.Logger,
		clock:        cfg.Clock,
		dial:         func(name, addr string) *Shard { return dial(name, addr).orSecret(cfg.Secret) },
		members:      make(map[string]*member),
	}
	if r.path == "" {
		return r, nil
	}
	raw, err := os.ReadFile(r.path)
	if errors.Is(err, os.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("membership: reading route table: %w", err)
	}
	var doc tableDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("membership: parsing route table %s: %w", r.path, err)
	}
	if doc.Version != tableVersion {
		return nil, fmt.Errorf("membership: route table %s has version %d, want %d", r.path, doc.Version, tableVersion)
	}
	now := r.clock()
	for _, mi := range doc.Members {
		if mi.Name == "" {
			return nil, fmt.Errorf("membership: route table %s has a member without a name", r.path)
		}
		if mi.State != membership.StateDown {
			mi.State = membership.StateAlive
		}
		last := now
		if mi.Static {
			last = time.Time{} // static grace: exempt until first heartbeat
		}
		m := &member{MemberInfo: mi, lastSeen: last, shard: r.dial(mi.Name, mi.Addr)}
		if m.shard == nil {
			r.log.Warn("cluster: persisted member has no dialable address", "member", mi.Name)
		}
		r.members[mi.Name] = m
	}
	r.epoch = doc.Epoch
	return r, nil
}

// Epoch reports the current topology epoch. Zero means an empty,
// never-seeded roster.
func (r *roster) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Members snapshots the membership records, sorted by name.
func (r *roster) Members() []membership.MemberInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recordsLocked()
}

func (r *roster) recordsLocked() []membership.MemberInfo {
	out := make([]membership.MemberInfo, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, m.MemberInfo)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// snapshot copies every entry, sorted by name. Callers read the copies
// (and send requests through their clients) without the roster lock.
func (r *roster) snapshot() []member {
	r.mu.Lock()
	out := make([]member, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, *m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// owner returns the client of sid's rendezvous owner among the
// routable members (only those accepting new sessions when placing),
// or nil when there is none.
func (r *roster) owner(sid string, placing bool) *Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *Shard
	var bestScore uint64
	for name, m := range r.members {
		if !m.routable(placing) {
			continue
		}
		if s := score(name, sid); best == nil || outranks(name, s, best.name, bestScore) {
			best, bestScore = m.shard, s
		}
	}
	return best
}

// StateCounts reports how many members sit in each state — the
// vexus_cluster_members{state} gauge.
func (r *roster) StateCounts() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]float64{string(membership.StateAlive): 0, string(membership.StateSuspect): 0, string(membership.StateDown): 0}
	for _, m := range r.members {
		out[string(m.State)]++
	}
	return out
}

// SeedStatic admits the given shards as static members (exempt from
// failure detection until their first heartbeat). Already-known names
// keep their record — a restart re-seeding the same -shards list must
// not disturb the reloaded table — but gain the static mark and the
// given client. One epoch bump covers however many members the seed
// actually added, so a fresh N-shard gateway starts at epoch 1, not N.
func (r *roster) SeedStatic(shards []*Shard) {
	r.mu.Lock()
	defer r.mu.Unlock()
	added := false
	for _, sh := range shards {
		if m, ok := r.members[sh.name]; ok {
			m.Static = true
			if sh.addr != "" {
				m.Addr = sh.addr
			}
			m.shard = sh
			continue
		}
		r.members[sh.name] = &member{
			MemberInfo: membership.MemberInfo{
				Member: membership.Member{Name: sh.name, Addr: sh.addr, Static: true},
				State:  membership.StateAlive,
			},
			shard: sh,
		}
		added = true
	}
	if added {
		r.bumpLocked("seed")
	}
}

// Join admits a new member with its client (the warm-join path: the
// caller has already streamed it an engine snapshot). Duplicate names
// are an error — the name is the rendezvous identity.
func (r *roster) Join(sh *Shard) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.members[sh.name]; dup {
		return fmt.Errorf("cluster: shard %q already present", sh.name)
	}
	r.members[sh.name] = &member{
		MemberInfo: membership.MemberInfo{
			Member: membership.Member{Name: sh.name, Addr: sh.addr},
			State:  membership.StateAlive,
		},
		lastSeen: r.clock(),
		shard:    sh,
	}
	r.bumpLocked("join " + sh.name)
	return nil
}

// leavableLocked finds the named member and checks that it may leave
// the routing set: some other member would still accept new sessions.
func (r *roster) leavableLocked(name string) (*member, error) {
	m := r.members[name]
	if m == nil {
		return nil, fmt.Errorf("%w %q", errUnknownShard, name)
	}
	for other, o := range r.members {
		if other != name && o.routable(true) {
			return m, nil
		}
	}
	return nil, fmt.Errorf("cluster: %q cannot leave: no routable shard would remain", name)
}

// markDraining stops new placements on the named member, provided it
// may leave and has a client to drain through, and returns that client.
func (r *roster) markDraining(name string) (*Shard, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, err := r.leavableLocked(name)
	if err != nil {
		return nil, err
	}
	if m.shard == nil {
		return nil, fmt.Errorf("cluster: cannot drain %q: no dialable address (remove it instead)", name)
	}
	m.draining = true
	return m.shard, nil
}

// undrain clears a draining mark (a drain that failed part-way).
func (r *roster) undrain(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.members[name]; m != nil {
		m.draining = false
	}
}

// Remove drops a member (drain completed, or operator acknowledgment
// of a dead shard), refusing when no member accepting new sessions
// would remain.
func (r *roster) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.leavableLocked(name); err != nil {
		return err
	}
	delete(r.members, name)
	r.bumpLocked("remove " + name)
	return nil
}

// Heartbeat processes one announcement: refresh liveness and metadata,
// dial the member if it has no client yet, and return the gossip ack.
// recovered reports a down→alive transition, which re-enters the
// member into the routing set (and bumps the epoch). Unknown members
// are rejected with errUnknownShard — admission is Join's job.
func (r *roster) Heartbeat(hb membership.Member) (membership.Ack, bool, error) {
	ack, recovered, err := r.refresh(hb)
	if err == nil {
		r.redial(hb.Name)
	}
	return ack, recovered, err
}

func (r *roster) refresh(hb membership.Member) (membership.Ack, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[hb.Name]
	if !ok {
		return membership.Ack{}, false, fmt.Errorf("%w %q", errUnknownShard, hb.Name)
	}
	m.lastSeen = r.clock()
	if hb.Addr != "" {
		m.Addr = hb.Addr
	}
	m.Sessions = hb.Sessions
	m.Engines = hb.Engines
	recovered := m.State == membership.StateDown
	if m.State != membership.StateAlive {
		from := m.State
		m.State = membership.StateAlive
		if recovered {
			r.bumpLocked("recover " + m.Name)
		} else {
			r.persistLocked()
		}
		r.log.Info("membership: member "+string(from)+" -> alive", "member", m.Name, "epoch", r.epoch)
	}
	return membership.Ack{Epoch: r.epoch, Members: r.recordsLocked()}, recovered, nil
}

// redial gives a client-less member a client dialed from its current
// address. The dial hook runs outside the roster lock.
func (r *roster) redial(name string) {
	r.mu.Lock()
	m := r.members[name]
	if m == nil || m.shard != nil {
		r.mu.Unlock()
		return
	}
	addr := m.Addr
	r.mu.Unlock()
	sh := r.dial(name, addr)
	if sh == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[name] == m && m.shard == nil {
		m.shard = sh
		r.log.Info("cluster: member dialed on heartbeat", "member", name, "addr", addr)
	}
}

// Sweep runs failure detection against the clock and returns the
// transitions it performed (alive→suspect, suspect→down), in member
// name order. Static members that have never heartbeated are exempt.
// A member marked down leaves the routing set and the epoch bumps —
// the caller is expected to fail its routes closed (the gateway drops
// them, so the sessions read as expired, never as misrouted).
func (r *roster) Sweep() []transition {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()
	var events []transition
	names := make([]string, 0, len(r.members))
	for name := range r.members {
		names = append(names, name)
	}
	sort.Strings(names)
	changed := false
	for _, name := range names {
		m := r.members[name]
		if m.lastSeen.IsZero() {
			continue // static, never heartbeated
		}
		silent := now.Sub(m.lastSeen)
		switch {
		case silent >= r.downAfter && m.State != membership.StateDown:
			from := m.State
			m.State = membership.StateDown
			r.epoch++
			changed = true
			events = append(events, transition{Name: name, From: from, To: membership.StateDown, Epoch: r.epoch})
			r.log.Warn("membership: member down (heartbeats stopped)", "member", name, "silent", silent.Round(time.Millisecond), "epoch", r.epoch)
		case silent >= r.suspectAfter && m.State == membership.StateAlive:
			m.State = membership.StateSuspect
			changed = true
			events = append(events, transition{Name: name, From: membership.StateAlive, To: membership.StateSuspect, Epoch: r.epoch})
			r.log.Info("membership: member suspect", "member", name, "silent", silent.Round(time.Millisecond))
		}
	}
	if changed {
		r.persistLocked()
	}
	return events
}

// Down lists members currently marked down, sorted — what the
// gateway's readyz names until an operator drains or removes them.
func (r *roster) Down() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for name, m := range r.members {
		if m.State == membership.StateDown {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// bumpLocked advances the epoch for a routing-set change and persists.
func (r *roster) bumpLocked(why string) {
	r.epoch++
	r.log.Debug("membership: epoch advanced", "epoch", r.epoch, "change", why)
	r.persistLocked()
}

// persistLocked writes the table atomically (temp + rename, the same
// discipline as store.SaveFile). Persistence failures are logged, not
// fatal: the in-memory table is still correct, and the next transition
// retries.
func (r *roster) persistLocked() {
	if r.path == "" {
		return
	}
	doc := tableDoc{Version: tableVersion, Epoch: r.epoch, Members: r.recordsLocked()}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		r.log.Warn("membership: encoding route table", "err", err)
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(r.path), ".routes-*.tmp")
	if err != nil {
		r.log.Warn("membership: persisting route table", "err", err)
		return
	}
	_, werr := tmp.Write(append(raw, '\n'))
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), r.path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		r.log.Warn("membership: persisting route table", "path", r.path, "err", werr)
	}
}
