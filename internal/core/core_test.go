package core

import (
	"strings"
	"testing"
	"time"

	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/greedy"
)

// buildEngine creates a small DB-AUTHORS engine shared by tests.
func buildEngine(t testing.TB) *Engine {
	t.Helper()
	d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 400, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPipelineConfig()
	cfg.MinSupportFrac = 0.03
	eng, err := Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func sessionCfg() greedy.Config {
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 10 * time.Millisecond
	return cfg
}

func TestBuildPipeline(t *testing.T) {
	eng := buildEngine(t)
	if eng.Space.Len() == 0 {
		t.Fatal("no groups discovered")
	}
	if f := eng.Config().IndexFraction; f != 0.10 {
		t.Fatalf("normalized index fraction = %v", f)
	}
	// The engine's index answers every lookup exactly and stores no
	// prefix, whatever the configured fraction.
	if n := eng.Index.MemoryBytes(); n != 0 {
		t.Fatalf("engine index materializes %d bytes", n)
	}
	if eng.Timings.Mine <= 0 {
		t.Fatal("mining timing not recorded")
	}
	// Group labels resolve through the vocabulary.
	label := eng.GroupLabel(0)
	if label == "" || !strings.Contains(label, "=") {
		t.Fatalf("label = %q", label)
	}
}

func TestBuildEmptyDataFails(t *testing.T) {
	s := dataset.MustSchema(dataset.Attribute{
		Name: "g", Kind: dataset.Categorical, Values: []string{"a"}})
	d, err := dataset.NewBuilder(s).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(d, DefaultPipelineConfig()); err == nil {
		t.Fatal("empty dataset produced an engine")
	}
}

func TestSessionStartAndExplore(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	shown := s.Start()
	if len(shown) != 7 {
		t.Fatalf("initial display = %d groups, want k=7", len(shown))
	}
	if s.Focal() != -1 {
		t.Fatal("initial focal should be -1")
	}
	// Initial display is the largest groups, descending.
	for i := 1; i < len(shown); i++ {
		if eng.Space.Group(shown[i]).Size() > eng.Space.Group(shown[i-1]).Size() {
			t.Fatal("initial display not size-ordered")
		}
	}

	sel, err := s.Explore(shown[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.IDs) == 0 {
		t.Fatal("explore returned no groups")
	}
	if s.Focal() != shown[0] {
		t.Fatalf("focal = %d, want %d", s.Focal(), shown[0])
	}
	if len(s.History()) != 2 {
		t.Fatalf("history = %d steps", len(s.History()))
	}
	if s.Feedback().IsEmpty() {
		t.Fatal("explore did not reinforce feedback")
	}
}

func TestSessionExploreInvalid(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	s.Start()
	if _, err := s.Explore(-1); err == nil {
		t.Fatal("negative gid accepted")
	}
	if _, err := s.Explore(1 << 30); err == nil {
		t.Fatal("huge gid accepted")
	}
}

func TestSessionExploreWithoutStart(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	// Explore auto-starts.
	if _, err := s.Explore(0); err != nil {
		t.Fatal(err)
	}
	if len(s.History()) != 2 {
		t.Fatalf("history = %d", len(s.History()))
	}
}

func TestStartFrom(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	shown, err := s.StartFrom(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(shown) != 2 || shown[0] != 2 || shown[1] != 5 {
		t.Fatalf("shown = %v", shown)
	}
	if _, err := s.StartFrom(1 << 30); err == nil {
		t.Fatal("invalid seed group accepted")
	}
}

func TestBacktrackRestoresEverything(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	s.Start()
	first, err := s.Explore(s.Shown()[0])
	if err != nil {
		t.Fatal(err)
	}
	fbAfter1 := s.Feedback().Snapshot()
	if len(first.IDs) == 0 {
		t.Skip("no candidates")
	}
	if _, err := s.Explore(first.IDs[0]); err != nil {
		t.Fatal(err)
	}
	if len(s.History()) != 3 {
		t.Fatalf("history = %d", len(s.History()))
	}

	if err := s.Backtrack(1); err != nil {
		t.Fatal(err)
	}
	if len(s.History()) != 2 {
		t.Fatalf("history after backtrack = %d", len(s.History()))
	}
	// Display and feedback rewound to step 1.
	gotShown := s.Shown()
	for i, id := range first.IDs {
		if gotShown[i] != id {
			t.Fatalf("shown not restored: %v vs %v", gotShown, first.IDs)
		}
	}
	for _, e := range fbAfter1.Top(100) {
		var got float64
		if e.IsUser {
			got = s.Feedback().UserScore(e.User)
		} else {
			got = s.Feedback().TermScore(e.Term)
		}
		if got != e.Score {
			t.Fatalf("feedback not restored for %+v: %v", e, got)
		}
	}

	if err := s.Backtrack(99); err == nil {
		t.Fatal("invalid step accepted")
	}
}

func TestViewsColorShares(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	s.Start()
	views := s.Views("gender")
	if len(views) != 7 {
		t.Fatalf("views = %d", len(views))
	}
	for _, v := range views {
		if v.Size <= 0 || v.Label == "" {
			t.Fatalf("bad view %+v", v)
		}
		if len(v.ColorShares) != 3 { // female, male, missing
			t.Fatalf("color shares = %v", v.ColorShares)
		}
		sum := 0.0
		for _, sh := range v.ColorShares {
			sum += sh
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("shares sum = %v", sum)
		}
	}
	// Unknown attribute: no colors, no panic.
	plain := s.Views("")
	if plain[0].ColorShares != nil {
		t.Fatal("uncolored view has shares")
	}
}

func TestContextAndUnlearn(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	s.Start()
	if _, err := s.Explore(s.Shown()[0]); err != nil {
		t.Fatal(err)
	}
	ctx := s.Context(5)
	if len(ctx) == 0 {
		t.Fatal("context empty after explore")
	}
	for _, e := range ctx {
		if e.Label == "" || e.Score <= 0 {
			t.Fatalf("bad context entry %+v", e)
		}
	}
	// Unlearn the top term.
	var top ContextEntry
	for _, e := range ctx {
		if !e.IsUser {
			top = e
			break
		}
	}
	if top.Label != "" {
		parts := strings.SplitN(top.Label, "=", 2)
		if err := s.Unlearn(parts[0], parts[1]); err != nil {
			t.Fatal(err)
		}
		for _, e := range s.Context(100) {
			if e.Label == top.Label {
				t.Fatal("unlearned term still in context")
			}
		}
	}
	if err := s.Unlearn("nosuch", "value"); err == nil {
		t.Fatal("unknown term unlearned")
	}
	if err := s.UnlearnUser("ghost"); err == nil {
		t.Fatal("unknown user unlearned")
	}
	if err := s.UnlearnUser(eng.Data.Users[0].ID); err != nil {
		t.Fatal(err)
	}
}

func TestMemo(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	s.Start()
	if err := s.BookmarkGroup(1); err != nil {
		t.Fatal(err)
	}
	if err := s.BookmarkGroup(1); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := s.BookmarkUser(3); err != nil {
		t.Fatal(err)
	}
	m := s.Memo()
	if len(m.Groups()) != 1 || len(m.Users()) != 1 {
		t.Fatalf("memo = %v / %v", m.Groups(), m.Users())
	}
	if !m.HasGroup(1) || !m.HasUser(3) || m.HasUser(4) {
		t.Fatal("memo membership wrong")
	}
	m.RemoveUser(3)
	if m.HasUser(3) || len(m.Users()) != 0 {
		t.Fatal("remove failed")
	}
	m.RemoveUser(3) // no-op
	if err := s.BookmarkGroup(-1); err == nil {
		t.Fatal("invalid group bookmarked")
	}
	if err := s.BookmarkUser(1 << 30); err == nil {
		t.Fatal("invalid user bookmarked")
	}
}

func TestFocusView(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	s.Start()
	gid := s.Shown()[0]
	fv, err := s.Focus(gid, "gender")
	if err != nil {
		t.Fatal(err)
	}
	if len(fv.Members) != eng.Space.Group(gid).Size() {
		t.Fatalf("members = %d", len(fv.Members))
	}
	if fv.SelectedCount() != len(fv.Members) {
		t.Fatal("initial selection should be everyone")
	}
	attrs := fv.Attributes()
	if len(attrs) != eng.Data.Schema.NumAttrs() {
		t.Fatalf("attributes = %v", attrs)
	}
	labels, counts, err := fv.Histogram("gender")
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 3 || len(counts) != 3 {
		t.Fatalf("gender histogram = %v %v", labels, counts)
	}
	total := counts[0] + counts[1] + counts[2]
	if total != len(fv.Members) {
		t.Fatalf("histogram total = %d, members = %d", total, len(fv.Members))
	}

	// Brush to females only: the member table shrinks accordingly.
	if err := fv.Brush("gender", "female"); err != nil {
		t.Fatal(err)
	}
	if fv.SelectedCount() != counts[0] {
		t.Fatalf("selected %d, want %d females", fv.SelectedCount(), counts[0])
	}
	for _, u := range fv.SelectedUsers() {
		if v, _ := eng.Data.DemoValue(u, eng.Data.Schema.AttrIndex("gender")); v != "female" {
			t.Fatalf("non-female user %d in selection", u)
		}
	}
	// Coordinated views: the *other* histograms shrink too.
	_, topicCounts, err := fv.Histogram("topic")
	if err != nil {
		t.Fatal(err)
	}
	topicTotal := 0
	for _, c := range topicCounts {
		topicTotal += c
	}
	if topicTotal != fv.SelectedCount() {
		t.Fatalf("topic histogram total %d != selected %d", topicTotal, fv.SelectedCount())
	}

	if err := fv.ClearBrush("gender"); err != nil {
		t.Fatal(err)
	}
	if fv.SelectedCount() != len(fv.Members) {
		t.Fatal("clear brush did not restore")
	}

	// Errors.
	if err := fv.Brush("nosuch", "x"); err == nil {
		t.Fatal("unknown attribute brushed")
	}
	if err := fv.Brush("gender", "robot"); err == nil {
		t.Fatal("unknown value brushed")
	}
	if _, _, err := fv.Histogram("nosuch"); err == nil {
		t.Fatal("unknown histogram served")
	}
	if err := fv.ClearBrush("nosuch"); err == nil {
		t.Fatal("unknown clear accepted")
	}
}

func TestFocusProjection(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	s.Start()
	fv, err := s.Focus(s.Shown()[0], "topic")
	if err != nil {
		t.Fatal(err)
	}
	if fv.Projection == nil {
		t.Fatal("no projection on a large group")
	}
	if len(fv.Projection.Points) != len(fv.Members) {
		t.Fatalf("points = %d, members = %d",
			len(fv.Projection.Points), len(fv.Members))
	}
	if fv.ClassAttr != "topic" {
		t.Fatalf("class attr = %q", fv.ClassAttr)
	}
}

func TestFocusTable(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	s.Start()
	fv, err := s.Focus(s.Shown()[0], "")
	if err != nil {
		t.Fatal(err)
	}
	rows := fv.Table(10)
	if len(rows) == 0 || len(rows) > 10 {
		t.Fatalf("table = %d rows", len(rows))
	}
	// Sorted by descending activity.
	for i := 1; i < len(rows); i++ {
		if rows[i].NumAct > rows[i-1].NumAct {
			t.Fatal("table not activity-sorted")
		}
	}
	if rows[0].ID == "" || len(rows[0].Demo) != eng.Data.Schema.NumAttrs() {
		t.Fatalf("bad row %+v", rows[0])
	}
}

func TestFocusInvalidInputs(t *testing.T) {
	eng := buildEngine(t)
	s := eng.NewSession(sessionCfg())
	s.Start()
	if _, err := s.Focus(-1, ""); err == nil {
		t.Fatal("invalid group focused")
	}
	if _, err := s.Focus(0, "nosuch"); err == nil {
		t.Fatal("invalid class attribute accepted")
	}
}
