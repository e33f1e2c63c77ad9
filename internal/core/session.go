package core

import (
	"fmt"

	"vexus/internal/feedback"
	"vexus/internal/greedy"
)

// Step is one HISTORY entry: the group the explorer clicked and the
// display that resulted. fbAfter snapshots the feedback vector after
// the step so Backtrack restores both position and personalization.
type Step struct {
	// Focal is the clicked group id; -1 for the initial display.
	Focal int
	// Shown is the GROUPVIZ content after the step.
	Shown []int
	// Selection carries the optimizer's quality metrics for the step.
	Selection greedy.Selection

	fbAfter *feedback.Vector
}

// Session is one explorer's interactive walk over the group space.
// Sessions are not safe for concurrent use.
type Session struct {
	eng *Engine
	cfg greedy.Config
	opt *greedy.Optimizer
	fb  *feedback.Vector

	shown   []int
	focal   int
	history []*Step
	memo    *Memo
}

func newSession(e *Engine, cfg greedy.Config) *Session {
	if cfg.K <= 0 {
		cfg = greedy.DefaultConfig()
	}
	return &Session{
		eng:   e,
		cfg:   cfg,
		opt:   greedy.New(e.Space, e.Index),
		fb:    feedback.New(),
		focal: -1,
		memo:  newMemo(),
	}
}

// Engine returns the underlying offline state.
func (s *Session) Engine() *Engine { return s.eng }

// Config returns the per-step optimization settings.
func (s *Session) Config() greedy.Config { return s.cfg }

// Start produces the initial GROUPVIZ display: the k largest groups
// (deterministic, diverse enough in practice to seed any task). It
// resets any previous exploration state.
func (s *Session) Start() []int {
	ids := s.eng.sizeOrder
	if ids == nil {
		// Zero-value Engine (not from Build): sort locally rather than
		// caching on the shared engine, which concurrent sessions read.
		ids = make([]int, s.eng.Space.Len())
		for i := range ids {
			ids[i] = i
		}
		s.eng.Space.SortBySize(ids)
	}
	k := s.cfg.K
	if k > len(ids) {
		k = len(ids)
	}
	s.shown = append([]int(nil), ids[:k]...)
	s.focal = -1
	s.fb = feedback.New()
	s.history = []*Step{{
		Focal:   -1,
		Shown:   append([]int(nil), s.shown...),
		fbAfter: s.fb.Snapshot(),
	}}
	s.memo = newMemo()
	return s.Shown()
}

// StartFrom seeds the display with explicit group ids (e.g. last
// year's PC as a starting group in Scenario 1).
func (s *Session) StartFrom(ids ...int) ([]int, error) {
	for _, id := range ids {
		if id < 0 || id >= s.eng.Space.Len() {
			return nil, fmt.Errorf("core: no group %d", id)
		}
	}
	s.shown = append([]int(nil), ids...)
	s.focal = -1
	s.fb = feedback.New()
	s.history = []*Step{{
		Focal:   -1,
		Shown:   append([]int(nil), s.shown...),
		fbAfter: s.fb.Snapshot(),
	}}
	s.memo = newMemo()
	return s.Shown(), nil
}

// Explore is the central interaction (§II-B "Interactivity"): the
// explorer clicks group gid; VEXUS records the implicit positive
// feedback, runs the time-bounded greedy optimizer, and replaces the
// display with the next k groups. Returns the optimizer's selection
// metrics.
func (s *Session) Explore(gid int) (greedy.Selection, error) {
	if len(s.history) == 0 {
		s.Start()
	}
	if gid < 0 || gid >= s.eng.Space.Len() {
		return greedy.Selection{}, fmt.Errorf("core: no group %d", gid)
	}
	g := s.eng.Space.Group(gid)
	s.fb.Reinforce(g, 1)
	sel, err := s.opt.SelectNext(g, s.fb, s.cfg)
	if err != nil {
		return greedy.Selection{}, err
	}
	s.focal = gid
	s.shown = append([]int(nil), sel.IDs...)
	s.history = append(s.history, &Step{
		Focal:     gid,
		Shown:     append([]int(nil), sel.IDs...),
		Selection: sel,
		fbAfter:   s.fb.Snapshot(),
	})
	return sel, nil
}

// Shown returns the current GROUPVIZ group ids.
func (s *Session) Shown() []int { return append([]int(nil), s.shown...) }

// Focal returns the last-clicked group id, or -1.
func (s *Session) Focal() int { return s.focal }

// Views renders the current display color-coded by the named
// attribute ("" disables coloring) — the data behind Fig. 2 (a).
func (s *Session) Views(colorAttr string) []GroupView {
	ai := -1
	if colorAttr != "" {
		ai = s.eng.Data.Schema.AttrIndex(colorAttr)
	}
	out := make([]GroupView, 0, len(s.shown))
	for _, gid := range s.shown {
		if s.focal >= 0 {
			out = append(out, s.eng.groupView(gid, ai, s.eng.Space.Group(s.focal)))
		} else {
			out = append(out, s.eng.groupView(gid, ai, nil))
		}
	}
	return out
}

// History returns the navigation trail (oldest first). The returned
// slice must not be modified.
func (s *Session) History() []*Step { return s.history }

// Backtrack restores the session to history step idx (0 = initial
// display), discarding the steps after it — position, display and
// feedback vector all rewind, preserving the explorer's train of
// thought exactly as HISTORY promises.
func (s *Session) Backtrack(idx int) error {
	if idx < 0 || idx >= len(s.history) {
		return fmt.Errorf("core: no history step %d (have %d)", idx, len(s.history))
	}
	st := s.history[idx]
	s.shown = append([]int(nil), st.Shown...)
	s.focal = st.Focal
	s.fb = st.fbAfter.Snapshot()
	s.history = s.history[:idx+1]
	return nil
}

// Feedback exposes the live profile (the CONTEXT module reads it; the
// simulator reinforces through Explore only).
func (s *Session) Feedback() *feedback.Vector { return s.fb }

// Context returns the top-n CONTEXT entries with resolved labels.
func (s *Session) Context(n int) []ContextEntry {
	top := s.fb.Top(n)
	out := make([]ContextEntry, len(top))
	for i, e := range top {
		ce := ContextEntry{Score: e.Score, IsUser: e.IsUser}
		if e.IsUser {
			ce.Label = s.eng.Data.Users[e.User].ID
			ce.User = e.User
		} else {
			ce.Label = s.eng.Space.Vocab.Term(e.Term).String()
			ce.Term = int(e.Term)
		}
		out[i] = ce
	}
	return out
}

// ContextEntry is one row of the CONTEXT display.
type ContextEntry struct {
	Label  string
	Score  float64
	IsUser bool
	User   int
	Term   int
}

// Unlearn removes a demographic value from the profile by label
// ("gender=male"), the explicit de-biasing interaction of §II-B.
func (s *Session) Unlearn(field, value string) error {
	id := s.eng.Space.Vocab.Lookup(field, value)
	if id < 0 {
		return fmt.Errorf("core: unknown term %s=%s", field, value)
	}
	s.fb.Unlearn(id)
	return nil
}

// UnlearnUser removes a user from the profile by external id.
func (s *Session) UnlearnUser(userID string) error {
	u := s.eng.Data.UserIndex(userID)
	if u < 0 {
		return fmt.Errorf("core: unknown user %q", userID)
	}
	s.fb.UnlearnUser(u)
	return nil
}

// Memo returns the bookmark collection.
func (s *Session) Memo() *Memo { return s.memo }

// BookmarkGroup saves a group to MEMO.
func (s *Session) BookmarkGroup(gid int) error {
	if gid < 0 || gid >= s.eng.Space.Len() {
		return fmt.Errorf("core: no group %d", gid)
	}
	s.memo.addGroup(gid)
	return nil
}

// BookmarkUser saves a user to MEMO.
func (s *Session) BookmarkUser(u int) error {
	if u < 0 || u >= s.eng.Data.NumUsers() {
		return fmt.Errorf("core: no user %d", u)
	}
	s.memo.addUser(u)
	return nil
}

// Memo is the MEMO module: the explorer's accumulating answer.
type Memo struct {
	groupIDs []int
	userIDs  []int
	hasGroup map[int]bool
	hasUser  map[int]bool
}

func newMemo() *Memo {
	return &Memo{hasGroup: map[int]bool{}, hasUser: map[int]bool{}}
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
func (m *Memo) Groups() []int { return append([]int(nil), m.groupIDs...) }

// Users returns bookmarked user ids in bookmark order.
func (m *Memo) Users() []int { return append([]int(nil), m.userIDs...) }

// HasUser reports whether user u is bookmarked.
func (m *Memo) HasUser(u int) bool { return m.hasUser[u] }

// HasGroup reports whether group gid is bookmarked.
func (m *Memo) HasGroup(gid int) bool { return m.hasGroup[gid] }
