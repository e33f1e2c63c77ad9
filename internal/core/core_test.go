package core

import (
	"strings"
	"testing"

	"vexus/internal/datagen"
	"vexus/internal/dataset"
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

func TestViewsColorShares(t *testing.T) {
	eng := buildEngine(t)
	views := eng.Views(eng.Largest(7), -1, "gender")
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
	plain := eng.Views(eng.Largest(7), -1, "")
	if plain[0].ColorShares != nil {
		t.Fatal("uncolored view has shares")
	}
}

func TestFocusView(t *testing.T) {
	eng := buildEngine(t)
	gid := eng.Largest(1)[0]
	fv, err := eng.Focus(gid, "gender")
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
	fv, err := eng.Focus(eng.Largest(1)[0], "topic")
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
	fv, err := eng.Focus(eng.Largest(1)[0], "")
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
	if _, err := eng.Focus(-1, ""); err == nil {
		t.Fatal("invalid group focused")
	}
	if _, err := eng.Focus(0, "nosuch"); err == nil {
		t.Fatal("invalid class attribute accepted")
	}
}
