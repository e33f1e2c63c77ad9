package action

import (
	"fmt"
	"time"
)

// ContextTop is how many CONTEXT entries the exploration surfaces
// display and diff (the server's state DTO and Diff context deltas use
// the same window, so a diff never reports a change the full state
// would not show).
const ContextTop = 8

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
	// No copies: apply replaces the display and MEMO slices or
	// appends to them, never edits them in place, so these keep the
	// pre-action contents.
	return snapshot{
		shown:   s.shown,
		focal:   s.focal,
		context: labels,
		memoG:   s.memo.groupIDs,
		memoU:   s.memo.userIDs,
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
		HistorySteps: len(s.history),
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
	data := s.eng.Data
	out := make([]string, len(users))
	for i, u := range users {
		out[i] = data.Users[u].ID
	}
	return out
}

// Apply executes one action against the session. On success the action
// is appended to the log, the mutation counter advances, and the
// Result carries the Diff against the pre-action state. On error
// neither log nor counter move, and the state is as before: each op
// validates its operands before it mutates. The one exception is an
// optimizer error on Explore, which only an invalid greedy.Config
// causes; the click's reinforcement then stays in the profile.
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
		s.reset(s.eng.Largest(s.cfg.K))
		s.Focus = nil

	case StartFrom:
		// Enforced here, not just in the JSON codec: an applied action
		// always lands in the log, and the log must re-decode — an
		// empty groups list would save as {"op":"startFrom"} and fail
		// to load.
		if len(a.Groups) == 0 {
			return Result{}, fmt.Errorf("action: startFrom requires a non-empty groups list")
		}
		for _, gid := range a.Groups {
			if err := s.checkGroup(gid); err != nil {
				return Result{}, err
			}
		}
		s.reset(append([]int(nil), a.Groups...))
		s.Focus = nil

	case Explore:
		// The central interaction (§II-B "Interactivity"): the click is
		// implicit positive feedback, and the optimizer picks the next
		// display for the clicked group under the updated profile.
		if err := s.checkGroup(a.Group); err != nil {
			return Result{}, err
		}
		if len(s.history) == 0 {
			s.reset(s.eng.Largest(s.cfg.K))
		}
		g := s.eng.Space.Group(a.Group)
		s.fb.Reinforce(g, 1)
		sel, err := s.opt.SelectNext(g, s.fb, s.cfg)
		if err != nil {
			return Result{}, err
		}
		s.focal = a.Group
		s.shown = sel.IDs
		s.history = append(s.history, Step{
			Focal: a.Group,
			Shown: append([]int(nil), sel.IDs...),
			fb:    s.fb.Snapshot(),
		})
		s.Focus = nil
		metrics = &Metrics{
			Coverage:   sel.Coverage,
			Diversity:  sel.Diversity,
			Feedback:   sel.Feedback,
			Objective:  sel.Objective,
			Candidates: sel.Candidates,
		}

	case Backtrack:
		// Position, display and profile all rewind to the step, and
		// the steps after it are discarded; MEMO is kept.
		if a.Step < 0 || a.Step >= len(s.history) {
			return Result{}, fmt.Errorf("action: no history step %d (have %d)", a.Step, len(s.history))
		}
		st := s.history[a.Step]
		s.shown = append([]int(nil), st.Shown...)
		s.focal = st.Focal
		s.fb = st.fb.Snapshot()
		s.history = s.history[:a.Step+1]
		s.Focus = nil

	case Focus:
		fv, err := s.eng.Focus(a.Group, a.Class)
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
		// The explicit de-biasing interaction of §II-B.
		id := s.eng.Space.Vocab.Lookup(a.Field, a.Value)
		if id < 0 {
			return Result{}, fmt.Errorf("action: unknown term %s=%s", a.Field, a.Value)
		}
		s.fb.Unlearn(id)

	case UnlearnUser:
		u, err := s.user(a.User)
		if err != nil {
			return Result{}, err
		}
		s.fb.UnlearnUser(u)

	case BookmarkGroup:
		if err := s.checkGroup(a.Group); err != nil {
			return Result{}, err
		}
		s.memo.addGroup(a.Group)

	case BookmarkUser:
		u, err := s.user(a.User)
		if err != nil {
			return Result{}, err
		}
		s.memo.addUser(u)
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

func (s *Session) checkGroup(gid int) error {
	if gid < 0 || gid >= s.eng.Space.Len() {
		return fmt.Errorf("action: no group %d", gid)
	}
	return nil
}

// user resolves an external user id.
func (s *Session) user(id string) (int, error) {
	u := s.eng.Data.UserIndex(id)
	if u < 0 {
		return 0, fmt.Errorf("action: unknown user %q", id)
	}
	return u, nil
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
