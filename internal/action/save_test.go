package action

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// walk drives a trail that exercises every spot the old click-only
// (v1) format lost — a backtrack mid-trail, a user unlearn, and a
// trailing open focus view with a brush — and returns the external id
// of the unlearned user.
func walk(t *testing.T, s *Session) string {
	t.Helper()
	eng := s.Sess.Engine()
	attr := eng.Data.Schema.Attrs[0].Name
	val := eng.Data.Schema.Attrs[0].Values[0]
	mustApply := func(a Action) {
		t.Helper()
		if _, err := Apply(s, a); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
	}
	mustApply(Action{Op: Start})
	first := s.Sess.Shown()[0]
	mustApply(Action{Op: Explore, Group: first})
	mustApply(Action{Op: Explore, Group: s.Sess.Shown()[1]})
	mustApply(Action{Op: Backtrack, Step: 1})
	mustApply(Action{Op: Explore, Group: s.Sess.Shown()[0]})
	// Unlearn a member of the first explored group: its mass was
	// reinforced, so only the pin keeps it at zero from here on.
	unlearned := eng.Data.Users[eng.Space.Group(first).Members.Indices()[0]].ID
	mustApply(Action{Op: UnlearnUser, User: unlearned})
	mustApply(Action{Op: BookmarkGroup, Group: s.Sess.Shown()[0]})
	mustApply(Action{Op: BookmarkUser, User: eng.Data.Users[5].ID})
	mustApply(Action{Op: Focus, Group: s.Sess.Shown()[0]})
	mustApply(Action{Op: Brush, Attr: attr, Values: []string{val}})
	return unlearned
}

// signature captures the externally observable end state of a session.
func signature(t *testing.T, s *Session) string {
	t.Helper()
	st := captureFull(s)
	raw, err := json.Marshal(struct {
		Shown   []int
		Focal   int
		Context []string
		MemoG   []int
		MemoU   []string
		History int
	}{st.shown, st.focal, st.context, st.memoG, st.memoU, st.history})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestSaveLoadV2RoundTrip(t *testing.T) {
	eng := testEngine(t)
	s := New(eng, detCfg())
	walk(t, s)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"version": 2`) {
		t.Fatalf("save is not v2:\n%s", buf.String())
	}

	restored := New(eng, detCfg())
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := signature(t, restored), signature(t, s); got != want {
		t.Fatalf("v2 replay diverged:\n got %s\nwant %s", got, want)
	}
	if len(restored.Log) != len(s.Log) {
		t.Fatalf("restored log %d actions, saved %d", len(restored.Log), len(s.Log))
	}
	// The focus view (with its brush) is part of the trail: v2 restores
	// it, selection count included.
	if restored.Focus == nil || s.Focus == nil {
		t.Fatal("focus view not restored")
	}
	if restored.Focus.SelectedCount() != s.Focus.SelectedCount() {
		t.Fatalf("brush selection %d restored, want %d",
			restored.Focus.SelectedCount(), s.Focus.SelectedCount())
	}
}

// TestV2PreservesWhereV1Drops pins what the removed click-only v1
// format lost and v2 must keep: the open focus view with its brush,
// and a user the explorer explicitly unlearned, which a click-only
// replay silently re-learned.
func TestV2PreservesWhereV1Drops(t *testing.T) {
	eng := testEngine(t)
	s := New(eng, detCfg())
	unlearned := walk(t, s)

	var v2 bytes.Buffer
	if err := s.Save(&v2); err != nil {
		t.Fatal(err)
	}
	restored := New(eng, detCfg())
	if err := restored.Load(bytes.NewReader(v2.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := signature(t, restored), signature(t, s); got != want {
		t.Fatalf("v2 did not reproduce the trail:\n got %s\nwant %s", got, want)
	}
	if restored.Focus == nil || restored.Focus.SelectedCount() != s.Focus.SelectedCount() {
		t.Fatal("v2 did not restore the brushed focus view")
	}
	u := eng.Data.UserIndex(unlearned)
	if got := s.Sess.Feedback().UserScore(u); got != 0 {
		t.Fatalf("original session still scores unlearned user %q at %v", unlearned, got)
	}
	if got := restored.Sess.Feedback().UserScore(u); got != 0 {
		t.Fatalf("v2 replay re-learned unlearned user %q (%v)", unlearned, got)
	}
}

// TestLoadTrailWithMinerField: save files written while the miner was
// an option carry "miner":"lcm" after the version. Such a trail still
// loads, and replaying it reproduces the session byte for byte.
func TestLoadTrailWithMinerField(t *testing.T) {
	eng := testEngine(t)
	s := New(eng, detCfg())
	walk(t, s)
	var cur bytes.Buffer
	if err := s.Save(&cur); err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(cur.String(), `"version": 2,`, `"version": 2,
  "miner": "lcm",`, 1)
	if old == cur.String() {
		t.Fatal("save has no version line to extend")
	}

	restored := New(eng, detCfg())
	if err := restored.Load(strings.NewReader(old)); err != nil {
		t.Fatal(err)
	}
	if got, want := signature(t, restored), signature(t, s); got != want {
		t.Fatalf("replay diverged:\n got %s\nwant %s", got, want)
	}
	var again bytes.Buffer
	if err := restored.Save(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != cur.String() {
		t.Fatalf("replayed trail saves differently:\n got %s\nwant %s", again.String(), cur.String())
	}
}

func TestLoadRejects(t *testing.T) {
	s := newTestSession(t)
	cases := []struct {
		name string
		in   string
	}{
		{"garbage", "not json"},
		{"unknown version", `{"version":9}`},
		{"v2 group mismatch", `{"version":2,"miner":"lcm","numGroups":1,"actions":[]}`},
		{"v1 (no longer read)", `{"version":1,"numGroups":1}`},
		{"v2 bad action", `{"version":2,"miner":"lcm","numGroups":` +
			itoa(s.Sess.Engine().Space.Len()) + `,"actions":[{"op":"explore"}]}`},
		{"v2 failing action", `{"version":2,"miner":"lcm","numGroups":` +
			itoa(s.Sess.Engine().Space.Len()) + `,"actions":[{"op":"bookmarkUser","user":"ghost"}]}`},
		{"v1 (no longer read)", `{"version":1,"numGroups":` +
			itoa(s.Sess.Engine().Space.Len()) + `,"unlearnedTerms":["gender=male"]}`},
	}
	for _, c := range cases {
		if err := s.Load(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func itoa(n int) string {
	raw, _ := json.Marshal(n)
	return string(raw)
}
