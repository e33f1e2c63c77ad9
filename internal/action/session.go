package action

import (
	"time"

	"vexus/internal/core"
	"vexus/internal/feedback"
	"vexus/internal/greedy"
)

// Session is one explorer's complete state: the exploration state
// (display, focal group, HISTORY with its profile snapshots, the
// CONTEXT feedback profile and MEMO), the open STATS focus view (nil
// when none), the mutation counter behind state ETags, and the
// append-only log of successfully applied actions — the full SAVE
// trail. The exploration state is unexported: Apply is the only code
// that writes it, and Sess reads it. A Session is not safe for
// concurrent use; the server serializes access per session.
type Session struct {
	// Sess is the read-only view of the exploration state.
	Sess View
	// Focus is the open STATS view; Explore, Backtrack and Start
	// close it (the displayed groups changed under it).
	Focus *core.FocusView
	// Mutations counts successfully applied actions. The server's
	// state ETag is derived from it, and every Diff carries it, so a
	// client consuming diffs always knows its current validator.
	Mutations uint64
	// Log is the trail of applied actions, oldest first. Save writes
	// it; Load rebuilds state by replaying it.
	Log []Action
	// OnDiff, when non-nil, is invoked after every successfully applied
	// action with its Result — the fan-out hook behind server-push diff
	// streams. Setting it forces Diff computation even on the quiet
	// paths (ApplyQuiet, Load's replay), so a replayed session's hook
	// observes exactly the Diff sequence the original applied live:
	// that is what lets a migrated session serve Last-Event-ID resumes
	// from its replayed history. The hook runs under whatever lock
	// guards the session and must not block.
	OnDiff func(Result)
	// Observe, when non-nil, receives every successfully applied
	// action's op and wall-clock apply duration — the telemetry hook
	// behind per-action-type latency histograms. Timing is taken only
	// when the hook is set, so un-instrumented sessions (replay,
	// simulation, the deterministic equivalence suites) never read the
	// clock. Like OnDiff it runs under the session's lock and must not
	// block.
	Observe func(op Kind, d time.Duration)

	eng *core.Engine
	cfg greedy.Config
	opt *greedy.Optimizer
	fb  *feedback.Vector

	shown   []int
	focal   int
	history []Step
	memo    Memo
}

// New opens a fresh session over the engine; cfg.K <= 0 means
// greedy.DefaultConfig(). No action has been applied yet — callers
// normally Apply a Start first, and an Explore on a fresh session
// starts it.
func New(eng *core.Engine, cfg greedy.Config) *Session {
	if cfg.K <= 0 {
		cfg = greedy.DefaultConfig()
	}
	s := &Session{
		eng:   eng,
		cfg:   cfg,
		opt:   greedy.New(eng.Space, eng.Index),
		fb:    feedback.New(),
		focal: -1,
		memo:  newMemo(),
	}
	s.Sess = View{s}
	return s
}

// reset replaces the display with ids and clears everything an
// exploration accumulates: focal, profile, HISTORY and MEMO.
func (s *Session) reset(ids []int) {
	s.shown = ids
	s.focal = -1
	s.fb = feedback.New()
	s.history = []Step{{Focal: -1, Shown: append([]int(nil), ids...), fb: s.fb.Snapshot()}}
	s.memo = newMemo()
}

// Step is one HISTORY entry: the group the explorer clicked and the
// display that resulted.
type Step struct {
	// Focal is the clicked group id; -1 for the initial display.
	Focal int
	// Shown is the GROUPVIZ content after the step.
	Shown []int

	// fb snapshots the profile after the step, so Backtrack restores
	// both position and personalization.
	fb *feedback.Vector
}

// Memo is the MEMO module: the explorer's accumulating answer.
type Memo struct {
	groupIDs []int
	userIDs  []int
	hasGroup map[int]bool
	hasUser  map[int]bool
}

func newMemo() Memo {
	return Memo{hasGroup: map[int]bool{}, hasUser: map[int]bool{}}
}

func (m *Memo) addGroup(gid int) {
	if !m.hasGroup[gid] {
		m.hasGroup[gid] = true
		m.groupIDs = append(m.groupIDs, gid)
	}
}

func (m *Memo) addUser(u int) {
	if !m.hasUser[u] {
		m.hasUser[u] = true
		m.userIDs = append(m.userIDs, u)
	}
}

// Groups returns bookmarked group ids in bookmark order.
func (m Memo) Groups() []int { return append([]int(nil), m.groupIDs...) }

// Users returns bookmarked user ids in bookmark order.
func (m Memo) Users() []int { return append([]int(nil), m.userIDs...) }

// HasUser reports whether user u is bookmarked.
func (m Memo) HasUser(u int) bool { return m.hasUser[u] }

// HasGroup reports whether group gid is bookmarked.
func (m Memo) HasGroup(gid int) bool { return m.hasGroup[gid] }

// ContextEntry is one row of the CONTEXT display.
type ContextEntry struct {
	Label  string
	Score  float64
	IsUser bool
	User   int
	Term   int
}

// View reads a session's exploration state. It has no method that
// writes: every value it returns is a copy or immutable, so nothing a
// caller does with one changes the session.
type View struct{ s *Session }

// Engine returns the engine the session explores.
func (v View) Engine() *core.Engine { return v.s.eng }

// Shown returns the current GROUPVIZ group ids.
func (v View) Shown() []int { return append([]int(nil), v.s.shown...) }

// Focal returns the last-clicked group id, or -1.
func (v View) Focal() int { return v.s.focal }

// Views renders the current display color-coded by the named
// attribute ("" disables coloring).
func (v View) Views(colorAttr string) []core.GroupView {
	return v.s.eng.Views(v.s.shown, v.s.focal, colorAttr)
}

// History returns a copy of the navigation trail, oldest first.
func (v View) History() []Step {
	out := make([]Step, len(v.s.history))
	for i, st := range v.s.history {
		out[i] = Step{Focal: st.Focal, Shown: append([]int(nil), st.Shown...)}
	}
	return out
}

// Context returns the top-n CONTEXT entries with resolved labels.
func (v View) Context(n int) []ContextEntry {
	eng := v.s.eng
	top := v.s.fb.Top(n)
	out := make([]ContextEntry, len(top))
	for i, e := range top {
		ce := ContextEntry{Score: e.Score, IsUser: e.IsUser}
		if e.IsUser {
			ce.Label = eng.Data.Users[e.User].ID
			ce.User = e.User
		} else {
			ce.Label = eng.Space.Vocab.Term(e.Term).String()
			ce.Term = int(e.Term)
		}
		out[i] = ce
	}
	return out
}

// Memo returns the bookmark collection.
func (v View) Memo() Memo { return v.s.memo }

// Feedback returns a snapshot of the feedback profile: reinforcing
// or unlearning on it leaves the session's profile as it was.
func (v View) Feedback() *feedback.Vector { return v.s.fb.Snapshot() }

// Focus opens a STATS view on group gid without changing the session
// (the Focus action opens one and keeps it as Session.Focus).
func (v View) Focus(gid int, classAttr string) (*core.FocusView, error) {
	return v.s.eng.Focus(gid, classAttr)
}
