package action

import (
	"fmt"
	"time"

	"vexus/internal/core"
	"vexus/internal/greedy"
)

// ContextTop is how many CONTEXT entries the exploration surfaces
// display and diff (the server's state DTO and Diff context deltas use
// the same window, so a diff never reports a change the full state
// would not show).
const ContextTop = 8

// Session is the complete per-explorer state every frontend
// manipulates: the core exploration session, the open STATS focus view
// (nil when none), the mutation counter behind state ETags, and the
// append-only log of successfully applied actions — the full SAVE
// trail. Like core.Session, it is not safe for concurrent use; the
// server serializes access per session.
type Session struct {
	Sess *core.Session
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
}

// New opens a fresh session over the engine. No action has been
// applied yet — callers normally Apply a Start first.
func New(eng *core.Engine, cfg greedy.Config) *Session {
	return Wrap(eng.NewSession(cfg))
}

// Wrap lifts an existing core.Session into the action layer. The log
// starts empty: actions applied before wrapping are not recoverable.
func Wrap(s *core.Session) *Session {
	return &Session{Sess: s}
}

// Metrics is the optimizer outcome of an Explore, stripped to the
// deterministic quality numbers (wall clock stays out of API responses
// so identical explorations produce identical bodies).
type Metrics struct {
	Coverage   float64 `json:"coverage"`
	Diversity  float64 `json:"diversity"`
	Feedback   float64 `json:"feedback"`
	Objective  float64 `json:"objective"`
	Candidates int     `json:"candidates"`
}

// FocusState summarizes the open STATS view after an action: which
// group it is on and how many members pass every brush.
type FocusState struct {
	Group    int `json:"group"`
	Selected int `json:"selected"`
}

// Diff reports what one action changed, computed against the state
// immediately before it. Sets are diffed positionally stable: added in
// after-display order, removed in before-display order.
type Diff struct {
	Op Kind `json:"op"`
	// ShownAdded/ShownRemoved are the GROUPVIZ membership changes.
	ShownAdded   []int `json:"shownAdded,omitempty"`
	ShownRemoved []int `json:"shownRemoved,omitempty"`
	// FocalChanged marks a focal move; Focal is the focal after the
	// action (-1 on the initial display).
	FocalChanged bool `json:"focalChanged,omitempty"`
	Focal        int  `json:"focal"`
	// HistorySteps is the trail length after the action.
	HistorySteps int `json:"historySteps"`
	// ContextAdded/ContextRemoved are label deltas of the top
	// ContextTop CONTEXT entries.
	ContextAdded   []string `json:"contextAdded,omitempty"`
	ContextRemoved []string `json:"contextRemoved,omitempty"`
	// Memo deltas; users as external ids. Removals happen only when
	// Start/StartFrom reset the session.
	MemoGroupsAdded   []int    `json:"memoGroupsAdded,omitempty"`
	MemoGroupsRemoved []int    `json:"memoGroupsRemoved,omitempty"`
	MemoUsersAdded    []string `json:"memoUsersAdded,omitempty"`
	MemoUsersRemoved  []string `json:"memoUsersRemoved,omitempty"`
	// Focus is the open STATS view after the action, nil when none.
	Focus *FocusState `json:"focus,omitempty"`
	// Mutations is the session mutation counter after the action — the
	// number the state ETag derives from.
	Mutations uint64 `json:"mutations"`
}

// Result is the outcome of one applied action.
type Result struct {
	// Metrics is present when the action ran the greedy optimizer
	// (Explore).
	Metrics *Metrics `json:"metrics,omitempty"`
	Diff    Diff     `json:"diff"`
}

// BatchError reports which action of a batch failed; the actions
// before Index were applied and their results stand.
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("action %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// snapshot captures the diffable state before an action.
type snapshot struct {
	shown   []int
	focal   int
	context []string
	memoG   []int
	memoU   []int
}

func (s *Session) snap() snapshot {
	ctx := s.Sess.Context(ContextTop)
	labels := make([]string, len(ctx))
	for i, e := range ctx {
		labels[i] = e.Label
	}
	m := s.Sess.Memo()
	return snapshot{
		shown:   s.Sess.Shown(),
		focal:   s.Sess.Focal(),
		context: labels,
		memoG:   m.Groups(),
		memoU:   m.Users(),
	}
}

// diffInts returns after-order additions and before-order removals of
// two id lists treated as sets.
func diffInts(before, after []int) (added, removed []int) {
	in := make(map[int]bool, len(before))
	for _, x := range before {
		in[x] = true
	}
	out := make(map[int]bool, len(after))
	for _, x := range after {
		out[x] = true
		if !in[x] {
			added = append(added, x)
		}
	}
	for _, x := range before {
		if !out[x] {
			removed = append(removed, x)
		}
	}
	return added, removed
}

func diffStrings(before, after []string) (added, removed []string) {
	in := make(map[string]bool, len(before))
	for _, x := range before {
		in[x] = true
	}
	out := make(map[string]bool, len(after))
	for _, x := range after {
		out[x] = true
		if !in[x] {
			added = append(added, x)
		}
	}
	for _, x := range before {
		if !out[x] {
			removed = append(removed, x)
		}
	}
	return added, removed
}

// diffFrom compares the live state against a pre-action snapshot.
func (s *Session) diffFrom(pre snapshot, op Kind) Diff {
	post := s.snap()
	d := Diff{
		Op:           op,
		Focal:        post.focal,
		FocalChanged: post.focal != pre.focal,
		HistorySteps: len(s.Sess.History()),
		Mutations:    s.Mutations,
	}
	d.ShownAdded, d.ShownRemoved = diffInts(pre.shown, post.shown)
	d.ContextAdded, d.ContextRemoved = diffStrings(pre.context, post.context)
	d.MemoGroupsAdded, d.MemoGroupsRemoved = diffInts(pre.memoG, post.memoG)
	uAdded, uRemoved := diffInts(pre.memoU, post.memoU)
	d.MemoUsersAdded = s.userIDs(uAdded)
	d.MemoUsersRemoved = s.userIDs(uRemoved)
	if s.Focus != nil {
		d.Focus = &FocusState{Group: s.Focus.GroupID, Selected: s.Focus.SelectedCount()}
	}
	return d
}

func (s *Session) userIDs(users []int) []string {
	if len(users) == 0 {
		return nil
	}
	data := s.Sess.Engine().Data
	out := make([]string, len(users))
	for i, u := range users {
		out[i] = data.Users[u].ID
	}
	return out
}

// Apply executes one action against the session. On success the action
// is appended to the log, the mutation counter advances, and the
// Result carries the Diff against the pre-action state. On error the
// session is left as the underlying core operation left it (core
// validates operands before mutating) and neither log nor counter
// move.
func Apply(s *Session, a Action) (Result, error) {
	return apply(s, a, true)
}

// ApplyQuiet applies one action without computing its Diff — the
// same dispatch, log append and mutation count as Apply, minus the
// before/after state snapshots (each of which resolves the CONTEXT
// top entries, one pass over the feedback profile, and copies the
// display and MEMO). Replay and simulation paths that discard Results
// use it; anything serving diffs to a client uses Apply.
func ApplyQuiet(s *Session, a Action) error {
	_, err := apply(s, a, false)
	return err
}

// apply is the single dispatcher behind both entry points.
func apply(s *Session, a Action, wantDiff bool) (Result, error) {
	if !a.Op.Valid() {
		return Result{}, fmt.Errorf("action: unknown op %q", a.Op)
	}
	wantDiff = wantDiff || s.OnDiff != nil
	var started time.Time
	if s.Observe != nil {
		started = time.Now()
	}
	var pre snapshot
	if wantDiff {
		pre = s.snap()
	}
	var metrics *Metrics
	switch a.Op {
	case Start:
		s.Sess.Start()
		s.Focus = nil

	case StartFrom:
		// Enforced here, not just in the JSON codec: an applied action
		// always lands in the log, and the log must re-decode — an
		// empty groups list would save as {"op":"startFrom"} and fail
		// to load.
		if len(a.Groups) == 0 {
			return Result{}, fmt.Errorf("action: startFrom requires a non-empty groups list")
		}
		if _, err := s.Sess.StartFrom(a.Groups...); err != nil {
			return Result{}, err
		}
		s.Focus = nil

	case Explore:
		sel, err := s.Sess.Explore(a.Group)
		if err != nil {
			return Result{}, err
		}
		s.Focus = nil
		metrics = &Metrics{
			Coverage:   sel.Coverage,
			Diversity:  sel.Diversity,
			Feedback:   sel.Feedback,
			Objective:  sel.Objective,
			Candidates: sel.Candidates,
		}

	case Backtrack:
		if err := s.Sess.Backtrack(a.Step); err != nil {
			return Result{}, err
		}
		s.Focus = nil

	case Focus:
		fv, err := s.Sess.Focus(a.Group, a.Class)
		if err != nil {
			return Result{}, err
		}
		s.Focus = fv

	case Brush:
		if s.Focus == nil {
			return Result{}, fmt.Errorf("action: no focused group to brush")
		}
		var err error
		if len(a.Values) == 0 {
			err = s.Focus.ClearBrush(a.Attr)
		} else {
			err = s.Focus.Brush(a.Attr, a.Values...)
		}
		if err != nil {
			return Result{}, err
		}

	case Unlearn:
		if err := s.Sess.Unlearn(a.Field, a.Value); err != nil {
			return Result{}, err
		}

	case UnlearnUser:
		if err := s.Sess.UnlearnUser(a.User); err != nil {
			return Result{}, err
		}

	case BookmarkGroup:
		if err := s.Sess.BookmarkGroup(a.Group); err != nil {
			return Result{}, err
		}

	case BookmarkUser:
		u := s.Sess.Engine().Data.UserIndex(a.User)
		if u < 0 {
			return Result{}, fmt.Errorf("action: unknown user %q", a.User)
		}
		if err := s.Sess.BookmarkUser(u); err != nil {
			return Result{}, err
		}
	}
	s.Mutations++
	s.Log = append(s.Log, a)
	res := Result{Metrics: metrics}
	if wantDiff {
		res.Diff = s.diffFrom(pre, a.Op)
	}
	if s.OnDiff != nil {
		s.OnDiff(res)
	}
	if s.Observe != nil {
		s.Observe(a.Op, time.Since(started))
	}
	return res, nil
}

// ApplyAll applies actions in order, stopping at the first failure:
// the returned results cover the applied prefix, and the error is a
// *BatchError carrying the failing position. Actions before the
// failure stay applied — batches are sequences, not transactions.
func ApplyAll(s *Session, acts []Action) ([]Result, error) {
	out := make([]Result, 0, len(acts))
	for i, a := range acts {
		res, err := Apply(s, a)
		if err != nil {
			return out, &BatchError{Index: i, Err: err}
		}
		out = append(out, res)
	}
	return out, nil
}

// ApplyAllQuiet is ApplyAll without diff computation, for replay
// paths: same sequencing, same *BatchError positions.
func ApplyAllQuiet(s *Session, acts []Action) error {
	for i, a := range acts {
		if err := ApplyQuiet(s, a); err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	return nil
}
