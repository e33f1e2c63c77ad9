package simulate

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/rng"
)

// TestRunCollaborative pins the collaborative-session contract the SSE
// diff stream carries: several analysts with divergent targets share
// one session, each reconstructing the session purely from the fanned-
// out diff stream, and every reconstruction is byte-identical to the
// authoritative state.
func TestRunCollaborative(t *testing.T) {
	eng := buildEngine(t)
	ng := eng.Space.Len()
	task := CollabTask{
		Analysts: 3,
		Turns:    6,
		Targets:  []int{1 % ng, ng / 2, ng - 1},
	}
	// TimeLimit 0 makes the greedy selector fully deterministic — the
	// same condition replay-based migration relies on — so the shared
	// trail replayed on a fresh session below must land byte-identically.
	det := fastCfg()
	det.TimeLimit = 0
	sess := eng.NewSession(det)
	res := RunCollaborative(sess, task, NoisyPolicy(0.2), rng.New(42))

	if res.Applied == 0 || res.Mutations != uint64(res.Applied) {
		t.Fatalf("applied %d actions but counter is %d", res.Applied, res.Mutations)
	}
	if len(res.Actions) != res.Applied {
		t.Fatalf("trail has %d actions, applied %d", len(res.Actions), res.Applied)
	}
	if !res.Converged {
		for i, v := range res.Views {
			if !bytes.Equal(v, res.Authoritative) {
				t.Errorf("analyst %d diverged:\n view %s\n auth %s", i, v, res.Authoritative)
			}
		}
		t.Fatal("collaborative views did not converge")
	}

	// The shared trail is a replayable action log like every other
	// simulate result: replaying it on a fresh session reproduces the
	// same authoritative projection.
	replay := action.Wrap(eng.NewSession(det))
	views := newCollabView()
	replay.OnDiff = func(r action.Result) { views.apply(r.Diff) }
	for _, a := range res.Actions {
		if err := action.ApplyQuiet(replay, a); err != nil {
			t.Fatalf("replaying shared trail: %v", err)
		}
	}
	if got := renderAuthoritative(replay); !bytes.Equal(got, res.Authoritative) {
		t.Fatalf("replayed trail diverged:\n got %s\nwant %s", got, res.Authoritative)
	}
	if got := views.render(); !bytes.Equal(got, res.Authoritative) {
		t.Fatalf("replayed diff stream diverged:\n got %s\nwant %s", got, res.Authoritative)
	}
}

// TestRunCollaborativeDegenerate: misconfigured tasks return an empty
// result instead of panicking.
func TestRunCollaborativeDegenerate(t *testing.T) {
	eng := buildEngine(t)
	sess := eng.NewSession(fastCfg())
	if res := RunCollaborative(sess, CollabTask{Analysts: 2, Targets: []int{0}}, GreedyPolicy(), rng.New(1)); res.Applied != 0 {
		t.Fatalf("mismatched targets ran %d actions", res.Applied)
	}
}

// Collaborative exploration: N analysts share ONE session, the shape
// the server's SSE diff stream exists for. Each analyst here is a
// model of one attached client — they act through the shared
// dispatcher and maintain their local picture of the session purely by
// applying the Diff stream the dispatcher fans out, exactly as a
// browser applies `event: diff` frames. The run's verdict is the
// stream's core promise: after any interleaving of divergent analysts,
// every diff-tracked view renders byte-identically to the
// authoritative session state.

// CollabTask configures a collaborative run.
type CollabTask struct {
	// Analysts is how many explorers share the session (≥ 1).
	Analysts int
	// Turns is how many actions each analyst takes, round-robin.
	Turns int
	// Targets[i] is analyst i's compass group — deliberately different
	// targets pull the shared session in different directions, which is
	// what makes convergence non-trivial. len(Targets) == Analysts.
	Targets []int
}

// CollabResult reports one collaborative run.
type CollabResult struct {
	// Applied is how many actions were successfully applied in total
	// (including the opening Start).
	Applied int
	// Mutations is the session's final mutation counter; equals Applied,
	// and every view must have observed exactly this many diffs.
	Mutations uint64
	// Converged reports whether every analyst's diff-tracked view
	// rendered byte-identically to the authoritative state.
	Converged bool
	// Authoritative is the canonical rendering of the final session
	// state; Views[i] is analyst i's rendering from diffs alone.
	Authoritative []byte
	Views         [][]byte
	// Actions is the shared trail — one log, N authors — replayable
	// through any frontend like every other simulate trail.
	Actions []action.Action
}

// collabView is the state a diff-consuming client can maintain: the
// observable session surface, reconstructed from Diff deltas alone,
// never from the session itself.
type collabView struct {
	mutations uint64
	history   int
	focal     int
	shown     map[int]bool
	context   map[string]bool
	memoG     map[int]bool
	memoU     map[string]bool
	focus     *action.FocusState
	observed  int // diffs applied — must equal the mutation counter
}

func newCollabView() *collabView {
	return &collabView{
		focal:   -1,
		shown:   make(map[int]bool),
		context: make(map[string]bool),
		memoG:   make(map[int]bool),
		memoU:   make(map[string]bool),
	}
}

func (v *collabView) apply(d action.Diff) {
	for _, g := range d.ShownRemoved {
		delete(v.shown, g)
	}
	for _, g := range d.ShownAdded {
		v.shown[g] = true
	}
	for _, l := range d.ContextRemoved {
		delete(v.context, l)
	}
	for _, l := range d.ContextAdded {
		v.context[l] = true
	}
	for _, g := range d.MemoGroupsRemoved {
		delete(v.memoG, g)
	}
	for _, g := range d.MemoGroupsAdded {
		v.memoG[g] = true
	}
	for _, u := range d.MemoUsersRemoved {
		delete(v.memoU, u)
	}
	for _, u := range d.MemoUsersAdded {
		v.memoU[u] = true
	}
	v.focal = d.Focal
	v.history = d.HistorySteps
	v.focus = d.Focus
	v.mutations = d.Mutations
	v.observed++
}

// collabSnapshot is the canonical order-free rendering both sides are
// projected onto: sets sorted, so "byte-identical" means "same
// observable state", not "same iteration order".
type collabSnapshot struct {
	Mutations  uint64             `json:"mutations"`
	History    int                `json:"history"`
	Focal      int                `json:"focal"`
	Shown      []int              `json:"shown"`
	Context    []string           `json:"context"`
	MemoGroups []int              `json:"memoGroups"`
	MemoUsers  []string           `json:"memoUsers"`
	Focus      *action.FocusState `json:"focus,omitempty"`
}

func (v *collabView) render() []byte {
	snap := collabSnapshot{
		Mutations:  v.mutations,
		History:    v.history,
		Focal:      v.focal,
		Shown:      sortedInts(v.shown),
		Context:    sortedStrings(v.context),
		MemoGroups: sortedInts(v.memoG),
		MemoUsers:  sortedStrings(v.memoU),
		Focus:      v.focus,
	}
	out, _ := json.Marshal(snap)
	return out
}

// renderAuthoritative projects the live session onto the same canonical
// shape the views render — read from the session, not from diffs.
func renderAuthoritative(as *action.Session) []byte {
	sess := as.Sess
	ctx := sess.Context(action.ContextTop)
	labels := make([]string, len(ctx))
	for i, e := range ctx {
		labels[i] = e.Label
	}
	sort.Strings(labels)
	m := sess.Memo()
	shown := append([]int(nil), sess.Shown()...)
	sort.Ints(shown)
	memoG := append([]int(nil), m.Groups()...)
	sort.Ints(memoG)
	data := sess.Engine().Data
	memoU := make([]string, 0, len(m.Users()))
	for _, u := range m.Users() {
		memoU = append(memoU, data.Users[u].ID)
	}
	sort.Strings(memoU)
	snap := collabSnapshot{
		Mutations:  as.Mutations,
		History:    len(sess.History()),
		Focal:      sess.Focal(),
		Shown:      shown,
		Context:    labels,
		MemoGroups: memoG,
		MemoUsers:  memoU,
	}
	if as.Focus != nil {
		snap.Focus = &action.FocusState{Group: as.Focus.GroupID, Selected: as.Focus.SelectedCount()}
	}
	out, _ := json.Marshal(snap)
	return out
}

func sortedInts(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

func sortedStrings(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

// RunCollaborative simulates task.Analysts explorers taking turns on
// one shared session. Turns are serialized — exactly how the server
// serializes concurrent clients under the session mutex — and every
// applied action's Diff fans out to every analyst's view through the
// same OnDiff hook the SSE hub subscribes. Each analyst steers toward
// their own target group (exploring the shown group most similar to
// it, bookmarking it when satisfied), so the shared trail interleaves
// genuinely conflicting intents.
func RunCollaborative(sess *core.Session, task CollabTask, policy Policy, r *rng.RNG) CollabResult {
	res := CollabResult{}
	if task.Analysts <= 0 || len(task.Targets) != task.Analysts {
		return res
	}
	space := sess.Engine().Space

	views := make([]*collabView, task.Analysts)
	for i := range views {
		views[i] = newCollabView()
	}

	as := action.Wrap(sess)
	as.OnDiff = func(r action.Result) {
		for _, v := range views {
			v.apply(r.Diff)
		}
	}
	apply := func(a action.Action) bool {
		if err := action.ApplyQuiet(as, a); err != nil {
			return false
		}
		res.Applied++
		return true
	}
	apply(action.Action{Op: action.Start})

	for turn := 0; turn < task.Turns; turn++ {
		for i := 0; i < task.Analysts; i++ {
			v := views[i]
			target := space.Group(task.Targets[i])
			shown := sortedInts(v.shown) // from the VIEW, not the session
			pick := policy.choose(r, shown, func(gid int) float64 {
				return space.Group(gid).Jaccard(target)
			})
			if pick < 0 {
				continue
			}
			// Satisfied analysts bookmark (a memo delta every view must
			// observe); unsatisfied ones keep exploring toward their goal.
			if pick == task.Targets[i] || space.Group(pick).Jaccard(target) >= 0.8 {
				if !v.memoG[pick] {
					apply(action.Action{Op: action.BookmarkGroup, Group: pick})
					continue
				}
			}
			apply(action.Action{Op: action.Explore, Group: pick})
		}
	}

	res.Mutations = as.Mutations
	res.Actions = as.Log
	res.Authoritative = renderAuthoritative(as)
	res.Views = make([][]byte, task.Analysts)
	res.Converged = true
	for i, v := range views {
		res.Views[i] = v.render()
		if !bytes.Equal(res.Views[i], res.Authoritative) || v.observed != int(as.Mutations) {
			res.Converged = false
		}
	}
	return res
}
