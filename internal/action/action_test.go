package action

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/greedy"
)

// ---------------------------------------------------------------------------
// Fixture: one small engine shared by every test in the package.

var (
	engOnce sync.Once
	engFix  *core.Engine
	engErr  error
)

func testEngine(t testing.TB) *core.Engine {
	t.Helper()
	engOnce.Do(func() {
		d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 400, Seed: 42})
		if err != nil {
			engErr = err
			return
		}
		cfg := core.DefaultPipelineConfig()
		cfg.MinSupportFrac = 0.03
		engFix, engErr = core.Build(d, cfg)
	})
	if engErr != nil {
		t.Fatal(engErr)
	}
	return engFix
}

// detCfg is a deterministic per-step config: no wall-clock cutoff, so
// identical inputs always select identical groups.
func detCfg() greedy.Config {
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 0
	return cfg
}

func newTestSession(t testing.TB) *Session {
	t.Helper()
	return New(testEngine(t), detCfg())
}

// ---------------------------------------------------------------------------
// JSON codec: strictness in both directions.

func TestActionJSONRoundTrip(t *testing.T) {
	cases := []Action{
		{Op: Start},
		{Op: StartFrom, Groups: []int{3, 1, 4}},
		{Op: Explore, Group: 0},
		{Op: Explore, Group: 17},
		{Op: Backtrack, Step: 0},
		{Op: Focus, Group: 2, Class: "gender"},
		{Op: Focus, Group: 2},
		{Op: Brush, Attr: "gender", Values: []string{"female"}},
		{Op: Brush, Attr: "gender"}, // clear
		{Op: Unlearn, Field: "gender", Value: "male"},
		{Op: UnlearnUser, User: "a0042"},
		{Op: BookmarkGroup, Group: 9},
		{Op: BookmarkUser, User: "a0007"},
	}
	for _, a := range cases {
		raw, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("marshal %v: %v", a, err)
		}
		var back Action
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		// Compare via re-marshal (slices vs nil aside, the wire form is
		// the identity that matters).
		raw2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(raw2) {
			t.Fatalf("round trip changed %s -> %s", raw, raw2)
		}
	}
}

func TestActionJSONStrict(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"unknown op", `{"op":"teleport"}`, "unknown op"},
		{"missing op", `{"group":1}`, "unknown op"},
		{"unknown field", `{"op":"explore","group":1,"bogus":2}`, "bogus"},
		{"field on wrong op", `{"op":"start","group":1}`, `does not take field "group"`},
		{"explore without group", `{"op":"explore"}`, `requires field "group"`},
		{"backtrack without step", `{"op":"backtrack"}`, `requires field "step"`},
		{"unlearn without value", `{"op":"unlearn","field":"gender"}`, `requires field "value"`},
		{"brush without attr", `{"op":"brush","values":["x"]}`, `requires field "attr"`},
		{"startFrom empty", `{"op":"startFrom","groups":[]}`, "non-empty"},
		{"bookmarkUser without user", `{"op":"bookmarkUser"}`, `requires field "user"`},
		{"step on explore", `{"op":"explore","group":1,"step":2}`, `does not take field "step"`},
	}
	for _, c := range cases {
		var a Action
		err := json.Unmarshal([]byte(c.in), &a)
		if err == nil {
			t.Errorf("%s: %s accepted", c.name, c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want substring %q", c.name, err, c.want)
		}
	}
}

func TestMarshalUnknownOp(t *testing.T) {
	if _, err := json.Marshal(Action{Op: "warp"}); err == nil {
		t.Fatal("marshaling an unknown op succeeded")
	}
}

func TestDecodeLogShapes(t *testing.T) {
	arr := `[{"op":"start"},{"op":"explore","group":1}]`
	acts, err := DecodeLog([]byte(arr))
	if err != nil || len(acts) != 2 {
		t.Fatalf("array log: %v (%d actions)", err, len(acts))
	}
	obj := `{"version":2,"miner":"lcm","numGroups":10,"actions":[{"op":"start"}]}`
	acts, err = DecodeLog([]byte(obj))
	if err != nil || len(acts) != 1 {
		t.Fatalf("object log: %v (%d actions)", err, len(acts))
	}
	if _, err := DecodeLog([]byte(`{"version":2}`)); err == nil {
		t.Fatal("log without actions accepted")
	}
	if _, err := DecodeLog([]byte(`[{"op":"nope"}]`)); err == nil {
		t.Fatal("log with unknown op accepted")
	}
}

// ---------------------------------------------------------------------------
// Dispatcher.

func TestApplyFullVocabulary(t *testing.T) {
	s := newTestSession(t)
	eng := s.Sess.Engine()

	res, err := Apply(s, Action{Op: Start})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diff.ShownAdded) == 0 || res.Diff.Mutations != 1 {
		t.Fatalf("start diff: %+v", res.Diff)
	}
	shown := s.Sess.Shown()

	res, err = Apply(s, Action{Op: Explore, Group: shown[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("explore returned no metrics")
	}
	if !res.Diff.FocalChanged || res.Diff.Focal != shown[0] {
		t.Fatalf("explore diff focal: %+v", res.Diff)
	}
	if len(res.Diff.ContextAdded) == 0 {
		t.Fatal("explore reinforced nothing into the context")
	}
	if res.Diff.HistorySteps != 2 {
		t.Fatalf("history steps = %d, want 2", res.Diff.HistorySteps)
	}

	res, err = Apply(s, Action{Op: Focus, Group: shown[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diff.Focus == nil || res.Diff.Focus.Group != shown[0] {
		t.Fatalf("focus diff: %+v", res.Diff)
	}
	before := res.Diff.Focus.Selected

	attr := eng.Data.Schema.Attrs[0].Name
	val := eng.Data.Schema.Attrs[0].Values[0]
	res, err = Apply(s, Action{Op: Brush, Attr: attr, Values: []string{val}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diff.Focus == nil || res.Diff.Focus.Selected > before {
		t.Fatalf("brush did not narrow the selection: %+v", res.Diff)
	}
	if _, err := Apply(s, Action{Op: Brush, Attr: attr}); err != nil {
		t.Fatalf("clear brush: %v", err)
	}

	if _, err := Apply(s, Action{Op: Unlearn, Field: "gender", Value: "male"}); err != nil {
		t.Fatal(err)
	}
	uid := eng.Data.Users[3].ID
	res, err = Apply(s, Action{Op: BookmarkUser, User: uid})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diff.MemoUsersAdded) != 1 || res.Diff.MemoUsersAdded[0] != uid {
		t.Fatalf("bookmarkUser diff: %+v", res.Diff)
	}
	res, err = Apply(s, Action{Op: BookmarkGroup, Group: shown[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diff.MemoGroupsAdded) != 1 {
		t.Fatalf("bookmarkGroup diff: %+v", res.Diff)
	}
	if _, err := Apply(s, Action{Op: UnlearnUser, User: uid}); err != nil {
		t.Fatal(err)
	}

	// Explore closes the focus view.
	if _, err := Apply(s, Action{Op: Explore, Group: s.Sess.Shown()[0]}); err != nil {
		t.Fatal(err)
	}
	if s.Focus != nil {
		t.Fatal("explore left the focus view open")
	}

	res, err = Apply(s, Action{Op: Backtrack, Step: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diff.Focal != -1 || res.Diff.HistorySteps != 1 {
		t.Fatalf("backtrack diff: %+v", res.Diff)
	}
	// Memo survives backtrack.
	if len(res.Diff.MemoGroupsRemoved) != 0 || len(res.Diff.MemoUsersRemoved) != 0 {
		t.Fatalf("backtrack touched the memo: %+v", res.Diff)
	}

	// StartFrom resets memo: removals must be reported.
	res, err = Apply(s, Action{Op: StartFrom, Groups: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diff.MemoGroupsRemoved) != 1 || len(res.Diff.MemoUsersRemoved) != 1 {
		t.Fatalf("startFrom memo reset not reported: %+v", res.Diff)
	}
	if got := s.Sess.Shown(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("startFrom shown = %v", got)
	}

	if int(s.Mutations) != len(s.Log) {
		t.Fatalf("mutations %d != log length %d", s.Mutations, len(s.Log))
	}
}

func TestApplyErrorsLeaveCountersAlone(t *testing.T) {
	s := newTestSession(t)
	if _, err := Apply(s, Action{Op: Start}); err != nil {
		t.Fatal(err)
	}
	cases := []Action{
		{Op: "bogus"},
		{Op: Explore, Group: -1},
		{Op: Explore, Group: 1 << 30},
		{Op: Backtrack, Step: 99},
		{Op: Focus, Group: -2},
		{Op: Brush, Attr: "gender", Values: []string{"female"}}, // no focus open
		{Op: Unlearn, Field: "nope", Value: "x"},
		{Op: UnlearnUser, User: "ghost"},
		{Op: BookmarkGroup, Group: -1},
		{Op: BookmarkUser, User: "ghost"},
		{Op: StartFrom, Groups: []int{-1}},
		// Empty StartFrom must fail in Apply, not just in the codec: an
		// applied action lands in the log, and the log must re-decode.
		{Op: StartFrom},
	}
	for _, a := range cases {
		if _, err := Apply(s, a); err == nil {
			t.Errorf("%v: applied without error", a)
		}
	}
	if s.Mutations != 1 || len(s.Log) != 1 {
		t.Fatalf("failed actions moved counters: mutations=%d log=%d", s.Mutations, len(s.Log))
	}
}

// TestFailedExploreLeavesSessionUnstarted: an Explore on a fresh
// session starts it only if the click is valid. A failed action is not
// logged, so a start it left behind would be missing from the trail: a
// later bookmark would survive live but be reset by the replay's
// auto-start.
func TestFailedExploreLeavesSessionUnstarted(t *testing.T) {
	s := newTestSession(t)
	if _, err := Apply(s, Action{Op: Explore, Group: -1}); err == nil {
		t.Fatal("invalid explore applied")
	}
	if n := len(s.Sess.History()); n != 0 {
		t.Fatalf("failed explore left %d history steps", n)
	}
}

// TestViewIsReadOnly: nothing a caller does to what Sess returns
// reaches the session. One session's returned profile is reinforced
// and its returned slices edited; its CONTEXT, and the Results of the
// actions that read each edited part next, must still equal those of
// an untouched twin on the same trail: Explore reads the profile and
// the display, Backtrack the history, Start's reset the memo.
func TestViewIsReadOnly(t *testing.T) {
	eng := testEngine(t)
	touched, twin := New(eng, detCfg()), New(eng, detCfg())
	for _, s := range []*Session{touched, twin} {
		if err := ApplyAllQuiet(s, []Action{
			{Op: Start},
			{Op: Explore, Group: eng.Largest(1)[0]},
		}); err != nil {
			t.Fatal(err)
		}
		if err := ApplyQuiet(s, Action{Op: BookmarkGroup, Group: s.Sess.Shown()[1]}); err != nil {
			t.Fatal(err)
		}
	}

	v := touched.Sess
	fb := v.Feedback()
	fb.Reinforce(eng.Space.Group(v.Shown()[2]), 5)
	fb.UnlearnUser(v.Context(1)[0].User)
	v.Shown()[0] = -7
	h := v.History()
	h[0].Shown[0] = -7
	h[0].Focal = 3
	v.Memo().Groups()[0] = -7

	if got, want := touched.Sess.Context(ContextTop), twin.Sess.Context(ContextTop); !reflect.DeepEqual(got, want) {
		t.Fatalf("context after edits %v, want %v", got, want)
	}
	for _, next := range []Action{
		{Op: Explore, Group: twin.Sess.Shown()[0]},
		{Op: Backtrack, Step: 0},
		{Op: Start},
	} {
		got, err := Apply(touched, next)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Apply(twin, next)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v after edits: %+v, want %+v", next, got, want)
		}
	}
}

// TestApplyQuietMatchesApply: the quiet variant must produce the same
// state transitions, log and counters — it only skips the Diff.
func TestApplyQuietMatchesApply(t *testing.T) {
	eng := testEngine(t)
	loud, quiet := New(eng, detCfg()), New(eng, detCfg())
	attr := eng.Data.Schema.Attrs[0].Name
	val := eng.Data.Schema.Attrs[0].Values[0]
	acts := []Action{
		{Op: Start},
		{Op: Explore, Group: 0},
		{Op: Focus, Group: 0},
		{Op: Brush, Attr: attr, Values: []string{val}},
		{Op: Unlearn, Field: "gender", Value: "male"},
		{Op: BookmarkGroup, Group: 0},
	}
	for _, a := range acts {
		if _, err := Apply(loud, a); err != nil {
			t.Fatalf("Apply %v: %v", a, err)
		}
		if err := ApplyQuiet(quiet, a); err != nil {
			t.Fatalf("ApplyQuiet %v: %v", a, err)
		}
	}
	lj, _ := json.Marshal(captureFull(loud).shown)
	qj, _ := json.Marshal(captureFull(quiet).shown)
	if string(lj) != string(qj) {
		t.Fatalf("shown diverged: %s vs %s", lj, qj)
	}
	if loud.Mutations != quiet.Mutations || len(loud.Log) != len(quiet.Log) {
		t.Fatalf("counters diverged: %d/%d vs %d/%d",
			loud.Mutations, len(loud.Log), quiet.Mutations, len(quiet.Log))
	}
	if quiet.Focus == nil || quiet.Focus.SelectedCount() != loud.Focus.SelectedCount() {
		t.Fatal("focus state diverged")
	}
	// Quiet batch reports the same failing positions.
	err := ApplyAllQuiet(quiet, []Action{{Op: Start}, {Op: Explore, Group: -1}})
	var be *BatchError
	if !errorsAs(err, &be) || be.Index != 1 {
		t.Fatalf("quiet batch error %v, want BatchError at 1", err)
	}
}

func TestApplyAllErrorPosition(t *testing.T) {
	s := newTestSession(t)
	acts := []Action{
		{Op: Start},
		{Op: Explore, Group: 0},
		{Op: Explore, Group: -5}, // fails at index 2
		{Op: Start},
	}
	results, err := ApplyAll(s, acts)
	if err == nil {
		t.Fatal("bad batch applied")
	}
	var be *BatchError
	if !errorsAs(err, &be) {
		t.Fatalf("error %T is not a BatchError", err)
	}
	if be.Index != 2 {
		t.Fatalf("failing index %d, want 2", be.Index)
	}
	if len(results) != 2 {
		t.Fatalf("%d results for the applied prefix, want 2", len(results))
	}
	if s.Mutations != 2 {
		t.Fatalf("mutations = %d after prefix, want 2", s.Mutations)
	}
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **BatchError) bool {
	for err != nil {
		if be, ok := err.(*BatchError); ok {
			*target = be
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestDiffPinnedAgainstFullRecompute drives a varied trail and checks
// every returned diff against an independent recompute from full
// before/after snapshots — the contract the server's batch endpoint
// relies on.
func TestDiffPinnedAgainstFullRecompute(t *testing.T) {
	s := newTestSession(t)
	if _, err := Apply(s, Action{Op: Start}); err != nil {
		t.Fatal(err)
	}
	eng := s.Sess.Engine()
	attr := eng.Data.Schema.Attrs[0].Name
	val := eng.Data.Schema.Attrs[0].Values[0]
	trail := []Action{
		{Op: Explore, Group: s.Sess.Shown()[0]},
		{Op: Focus, Group: s.Sess.Shown()[0]},
		{Op: Brush, Attr: attr, Values: []string{val}},
		{Op: Unlearn, Field: "gender", Value: "male"},
		{Op: BookmarkGroup, Group: 0},
		{Op: BookmarkUser, User: eng.Data.Users[1].ID},
		{Op: Backtrack, Step: 0},
		{Op: Start},
	}
	for i, a := range trail {
		if a.Op == Explore {
			a.Group = s.Sess.Shown()[0]
		}
		before := captureFull(s)
		res, err := Apply(s, a)
		if err != nil {
			t.Fatalf("step %d (%v): %v", i, a, err)
		}
		after := captureFull(s)
		d := res.Diff
		if added, removed := setDiffInt(before.shown, after.shown); !sameInts(d.ShownAdded, added) || !sameInts(d.ShownRemoved, removed) {
			t.Fatalf("step %d: shown diff %v/%v, recompute %v/%v", i, d.ShownAdded, d.ShownRemoved, added, removed)
		}
		if (d.FocalChanged != (before.focal != after.focal)) || d.Focal != after.focal {
			t.Fatalf("step %d: focal diff %+v, before %d after %d", i, d, before.focal, after.focal)
		}
		if added, removed := setDiffStr(before.context, after.context); !sameStrs(d.ContextAdded, added) || !sameStrs(d.ContextRemoved, removed) {
			t.Fatalf("step %d: context diff %v/%v, recompute %v/%v", i, d.ContextAdded, d.ContextRemoved, added, removed)
		}
		if added, removed := setDiffInt(before.memoG, after.memoG); !sameInts(d.MemoGroupsAdded, added) || !sameInts(d.MemoGroupsRemoved, removed) {
			t.Fatalf("step %d: memo group diff %v/%v, recompute %v/%v", i, d.MemoGroupsAdded, d.MemoGroupsRemoved, added, removed)
		}
		if added, removed := setDiffStr(before.memoU, after.memoU); !sameStrs(d.MemoUsersAdded, added) || !sameStrs(d.MemoUsersRemoved, removed) {
			t.Fatalf("step %d: memo user diff %v/%v, recompute %v/%v", i, d.MemoUsersAdded, d.MemoUsersRemoved, added, removed)
		}
		if d.HistorySteps != after.history {
			t.Fatalf("step %d: history %d, recompute %d", i, d.HistorySteps, after.history)
		}
		if d.Mutations != s.Mutations {
			t.Fatalf("step %d: mutations %d, session %d", i, d.Mutations, s.Mutations)
		}
	}
}

// fullState is the test's own capture of everything Diff covers,
// assembled only from public session accessors.
type fullState struct {
	shown   []int
	focal   int
	context []string
	memoG   []int
	memoU   []string
	history int
}

func captureFull(s *Session) fullState {
	st := fullState{
		shown:   s.Sess.Shown(),
		focal:   s.Sess.Focal(),
		history: len(s.Sess.History()),
		memoG:   s.Sess.Memo().Groups(),
	}
	for _, e := range s.Sess.Context(ContextTop) {
		st.context = append(st.context, e.Label)
	}
	data := s.Sess.Engine().Data
	for _, u := range s.Sess.Memo().Users() {
		st.memoU = append(st.memoU, data.Users[u].ID)
	}
	return st
}

// setDiffInt / setDiffStr are the test's independent set-difference
// implementations (order-insensitive; the assertions sort).
func setDiffInt(before, after []int) (added, removed []int) {
	b := map[int]bool{}
	for _, x := range before {
		b[x] = true
	}
	a := map[int]bool{}
	for _, x := range after {
		a[x] = true
		if !b[x] {
			added = append(added, x)
		}
	}
	for _, x := range before {
		if !a[x] {
			removed = append(removed, x)
		}
	}
	return
}

func setDiffStr(before, after []string) (added, removed []string) {
	b := map[string]bool{}
	for _, x := range before {
		b[x] = true
	}
	a := map[string]bool{}
	for _, x := range after {
		a[x] = true
		if !b[x] {
			added = append(added, x)
		}
	}
	for _, x := range before {
		if !a[x] {
			removed = append(removed, x)
		}
	}
	return
}

func sameInts(a, b []int) bool {
	x := append([]int(nil), a...)
	y := append([]int(nil), b...)
	sort.Ints(x)
	sort.Ints(y)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func sameStrs(a, b []string) bool {
	x := append([]string(nil), a...)
	y := append([]string(nil), b...)
	sort.Strings(x)
	sort.Strings(y)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
