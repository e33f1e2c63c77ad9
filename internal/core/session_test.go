package core_test

// The session tests drive an exploration through internal/action, the
// one writer of session state, over the engine's step functions. They
// live in package core_test because action imports core.

import (
	"strings"
	"testing"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/greedy"
)

func sessionCfg() greedy.Config {
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 10 * time.Millisecond
	return cfg
}

func newSession(t *testing.T) (*core.Engine, *action.Session) {
	t.Helper()
	eng := core.BuildTestEngine(t)
	return eng, action.New(eng, sessionCfg())
}

func apply(t *testing.T, s *action.Session, a action.Action) {
	t.Helper()
	if err := action.ApplyQuiet(s, a); err != nil {
		t.Fatalf("%v: %v", a, err)
	}
}

func TestSessionStartAndExplore(t *testing.T) {
	eng, s := newSession(t)
	apply(t, s, action.Action{Op: action.Start})
	shown := s.Sess.Shown()
	if len(shown) != 7 {
		t.Fatalf("initial display = %d groups, want k=7", len(shown))
	}
	if s.Sess.Focal() != -1 {
		t.Fatal("initial focal should be -1")
	}
	// Initial display is the largest groups, descending.
	for i := 1; i < len(shown); i++ {
		if eng.Space.Group(shown[i]).Size() > eng.Space.Group(shown[i-1]).Size() {
			t.Fatal("initial display not size-ordered")
		}
	}

	apply(t, s, action.Action{Op: action.Explore, Group: shown[0]})
	if len(s.Sess.Shown()) == 0 {
		t.Fatal("explore returned no groups")
	}
	if s.Sess.Focal() != shown[0] {
		t.Fatalf("focal = %d, want %d", s.Sess.Focal(), shown[0])
	}
	if len(s.Sess.History()) != 2 {
		t.Fatalf("history = %d steps", len(s.Sess.History()))
	}
	if s.Sess.Feedback().IsEmpty() {
		t.Fatal("explore did not reinforce feedback")
	}
}

func TestSessionExploreInvalid(t *testing.T) {
	_, s := newSession(t)
	apply(t, s, action.Action{Op: action.Start})
	if err := action.ApplyQuiet(s, action.Action{Op: action.Explore, Group: -1}); err == nil {
		t.Fatal("negative gid accepted")
	}
	if err := action.ApplyQuiet(s, action.Action{Op: action.Explore, Group: 1 << 30}); err == nil {
		t.Fatal("huge gid accepted")
	}
}

func TestSessionExploreWithoutStart(t *testing.T) {
	_, s := newSession(t)
	// Explore auto-starts.
	apply(t, s, action.Action{Op: action.Explore, Group: 0})
	if len(s.Sess.History()) != 2 {
		t.Fatalf("history = %d", len(s.Sess.History()))
	}
}

func TestStartFrom(t *testing.T) {
	_, s := newSession(t)
	apply(t, s, action.Action{Op: action.StartFrom, Groups: []int{2, 5}})
	if shown := s.Sess.Shown(); len(shown) != 2 || shown[0] != 2 || shown[1] != 5 {
		t.Fatalf("shown = %v", shown)
	}
	if err := action.ApplyQuiet(s, action.Action{Op: action.StartFrom, Groups: []int{1 << 30}}); err == nil {
		t.Fatal("invalid seed group accepted")
	}
}

func TestBacktrackRestoresEverything(t *testing.T) {
	_, s := newSession(t)
	apply(t, s, action.Action{Op: action.Start})
	apply(t, s, action.Action{Op: action.Explore, Group: s.Sess.Shown()[0]})
	first := s.Sess.Shown()
	fbAfter1 := s.Sess.Feedback()
	if len(first) == 0 {
		t.Skip("no candidates")
	}
	apply(t, s, action.Action{Op: action.Explore, Group: first[0]})
	if len(s.Sess.History()) != 3 {
		t.Fatalf("history = %d", len(s.Sess.History()))
	}

	apply(t, s, action.Action{Op: action.Backtrack, Step: 1})
	if len(s.Sess.History()) != 2 {
		t.Fatalf("history after backtrack = %d", len(s.Sess.History()))
	}
	// Display and feedback rewound to step 1.
	gotShown := s.Sess.Shown()
	for i, id := range first {
		if gotShown[i] != id {
			t.Fatalf("shown not restored: %v vs %v", gotShown, first)
		}
	}
	fb := s.Sess.Feedback()
	for _, e := range fbAfter1.Top(100) {
		var got float64
		if e.IsUser {
			got = fb.UserScore(e.User)
		} else {
			got = fb.TermScore(e.Term)
		}
		if got != e.Score {
			t.Fatalf("feedback not restored for %+v: %v", e, got)
		}
	}

	if err := action.ApplyQuiet(s, action.Action{Op: action.Backtrack, Step: 99}); err == nil {
		t.Fatal("invalid step accepted")
	}
}

func TestContextAndUnlearn(t *testing.T) {
	eng, s := newSession(t)
	apply(t, s, action.Action{Op: action.Start})
	apply(t, s, action.Action{Op: action.Explore, Group: s.Sess.Shown()[0]})
	ctx := s.Sess.Context(5)
	if len(ctx) == 0 {
		t.Fatal("context empty after explore")
	}
	for _, e := range ctx {
		if e.Label == "" || e.Score <= 0 {
			t.Fatalf("bad context entry %+v", e)
		}
	}
	// Unlearn the top term.
	var top action.ContextEntry
	for _, e := range ctx {
		if !e.IsUser {
			top = e
			break
		}
	}
	if top.Label != "" {
		parts := strings.SplitN(top.Label, "=", 2)
		apply(t, s, action.Action{Op: action.Unlearn, Field: parts[0], Value: parts[1]})
		for _, e := range s.Sess.Context(100) {
			if e.Label == top.Label {
				t.Fatal("unlearned term still in context")
			}
		}
	}
	if err := action.ApplyQuiet(s, action.Action{Op: action.Unlearn, Field: "nosuch", Value: "value"}); err == nil {
		t.Fatal("unknown term unlearned")
	}
	if err := action.ApplyQuiet(s, action.Action{Op: action.UnlearnUser, User: "ghost"}); err == nil {
		t.Fatal("unknown user unlearned")
	}
	apply(t, s, action.Action{Op: action.UnlearnUser, User: eng.Data.Users[0].ID})
}

func TestMemo(t *testing.T) {
	eng, s := newSession(t)
	apply(t, s, action.Action{Op: action.Start})
	apply(t, s, action.Action{Op: action.BookmarkGroup, Group: 1})
	apply(t, s, action.Action{Op: action.BookmarkGroup, Group: 1}) // idempotent
	apply(t, s, action.Action{Op: action.BookmarkUser, User: eng.Data.Users[3].ID})
	m := s.Sess.Memo()
	if len(m.Groups()) != 1 || len(m.Users()) != 1 {
		t.Fatalf("memo = %v / %v", m.Groups(), m.Users())
	}
	if !m.HasGroup(1) || !m.HasUser(3) || m.HasUser(4) {
		t.Fatal("memo membership wrong")
	}
	if err := action.ApplyQuiet(s, action.Action{Op: action.BookmarkGroup, Group: -1}); err == nil {
		t.Fatal("invalid group bookmarked")
	}
	if err := action.ApplyQuiet(s, action.Action{Op: action.BookmarkUser, User: "ghost"}); err == nil {
		t.Fatal("invalid user bookmarked")
	}
}
