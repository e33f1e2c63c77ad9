package core

import (
	"fmt"
	"sort"

	"vexus/internal/crossfilter"
	"vexus/internal/dataset"
	"vexus/internal/lda"
	"vexus/internal/linalg"
)

// FocusView is the STATS module opened on one group (§II-B "Granular
// Analysis"): an exhaustive set of demographic histograms over the
// group's members wired through crossfilter (a brush on one histogram
// updates all others instantaneously), plus the 2D LDA projection in
// which similar members appear close together (Fig. 2 Focus View).
type FocusView struct {
	GroupID int
	// Members maps view-local record ids to dataset user indices.
	Members []int

	eng  *Engine
	cf   *crossfilter.Engine
	dims map[string]*crossfilter.Dimension

	// Projection is the 2D embedding of the members' term-indicator
	// vectors; Points align with Members. It is LDA over the ClassAttr
	// classes (members missing the attribute form one more class), with
	// a principal direction as the second axis when two classes give a
	// single discriminant, and PCA when the members share one class.
	// Nil when the group has fewer than 3 members or no terms.
	Projection *lda.Result
	// ClassAttr is the attribute whose values were the LDA classes.
	ClassAttr string
}

// Focus opens the STATS module on group gid. classAttr selects the LDA
// class labels (e.g. "gender"); an empty classAttr uses the first
// schema attribute. The view reads no session state: it is a pure
// function of the engine, the group and the class attribute.
func (e *Engine) Focus(gid int, classAttr string) (*FocusView, error) {
	if gid < 0 || gid >= e.Space.Len() {
		return nil, fmt.Errorf("core: no group %d", gid)
	}
	schema := e.Data.Schema
	if classAttr == "" && schema.NumAttrs() > 0 {
		classAttr = schema.Attrs[0].Name
	}
	classIdx := schema.AttrIndex(classAttr)
	if classIdx < 0 {
		return nil, fmt.Errorf("core: no attribute %q", classAttr)
	}

	members := e.Space.Group(gid).Members.Indices()
	fv := &FocusView{
		GroupID:   gid,
		Members:   members,
		eng:       e,
		cf:        crossfilter.New(len(members)),
		dims:      make(map[string]*crossfilter.Dimension, schema.NumAttrs()),
		ClassAttr: classAttr,
	}

	// One crossfilter dimension per demographic attribute, with a
	// trailing "missing" bin.
	for ai := range schema.Attrs {
		attr := &schema.Attrs[ai]
		values := make([]int, len(members))
		card := len(attr.Values) + 1
		for i, u := range members {
			v := e.Data.Users[u].Demo[ai]
			if v == dataset.Missing {
				v = card - 1
			}
			values[i] = v
		}
		labels := append(append([]string(nil), attr.Values...), "missing")
		dim, err := fv.cf.AddDimension(attr.Name, values, card, labels)
		if err != nil {
			return nil, fmt.Errorf("core: focus dimension %q: %w", attr.Name, err)
		}
		fv.dims[attr.Name] = dim
	}

	// LDA projection over the members' term-indicator vectors.
	if len(members) >= 3 && e.Tx.Vocab.Len() > 0 {
		fv.fitProjection(classIdx)
	}
	return fv, nil
}

func (fv *FocusView) fitProjection(classIdx int) {
	vocabLen := fv.eng.Tx.Vocab.Len()
	x := linalg.NewMat(len(fv.Members), vocabLen)
	labels := make([]int, len(fv.Members))
	for i, u := range fv.Members {
		row := x.Data[i*vocabLen : (i+1)*vocabLen]
		for _, id := range fv.eng.Tx.PerUser[u] {
			row[id] = 1
		}
		l := fv.eng.Data.Users[u].Demo[classIdx]
		if l == dataset.Missing {
			l = -1
		}
		labels[i] = l
	}
	res, err := lda.Project(x, labels, lda.DefaultConfig())
	if err == nil {
		fv.Projection = res
	}
}

// Attributes lists the histogram dimensions in schema order.
func (fv *FocusView) Attributes() []string {
	out := make([]string, 0, len(fv.dims))
	for ai := range fv.eng.Data.Schema.Attrs {
		out = append(out, fv.eng.Data.Schema.Attrs[ai].Name)
	}
	return out
}

// Histogram returns the labeled bin counts of one attribute under all
// *other* brushes (crossfilter semantics).
func (fv *FocusView) Histogram(attr string) ([]string, []int, error) {
	dim, ok := fv.dims[attr]
	if !ok {
		return nil, nil, fmt.Errorf("core: no focus dimension %q", attr)
	}
	return dim.Labels(), dim.Histogram(), nil
}

// Brush keeps only the given values of an attribute (by label), e.g.
// Brush("gender", "female") to "limit the search only to females".
func (fv *FocusView) Brush(attr string, values ...string) error {
	dim, ok := fv.dims[attr]
	if !ok {
		return fmt.Errorf("core: no focus dimension %q", attr)
	}
	labels := dim.Labels()
	bins := make([]int, 0, len(values))
	for _, v := range values {
		found := -1
		for b, l := range labels {
			if l == v {
				found = b
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("core: attribute %q has no value %q", attr, v)
		}
		bins = append(bins, found)
	}
	dim.FilterBins(bins...)
	return nil
}

// ClearBrush removes the filter on one attribute.
func (fv *FocusView) ClearBrush(attr string) error {
	dim, ok := fv.dims[attr]
	if !ok {
		return fmt.Errorf("core: no focus dimension %q", attr)
	}
	dim.ClearFilter()
	return nil
}

// SelectedCount returns how many members pass every brush.
func (fv *FocusView) SelectedCount() int { return fv.cf.VisibleCount() }

// SelectedUsers returns the dataset user indices passing every brush —
// the updated member table of §II-B ("An updated list of selected
// users is shown in a table").
func (fv *FocusView) SelectedUsers() []int {
	local := fv.cf.Visible()
	out := make([]int, len(local))
	for i, r := range local {
		out[i] = fv.Members[r]
	}
	return out
}

// MemberRow is one row of the member table.
type MemberRow struct {
	User   int
	ID     string
	Demo   []string // value per schema attribute ("" = missing)
	NumAct int      // activity count (e.g. publications)
}

// Table materializes the selected members with resolved demographics,
// sorted by descending activity (the anecdote's "Elke A. Rundensteiner
// with 325 publications" surfaces first).
func (fv *FocusView) Table(limit int) []MemberRow {
	users := fv.SelectedUsers()
	rows := make([]MemberRow, 0, len(users))
	for _, u := range users {
		row := MemberRow{
			User:   u,
			ID:     fv.eng.Data.Users[u].ID,
			Demo:   make([]string, fv.eng.Data.Schema.NumAttrs()),
			NumAct: len(fv.eng.Data.UserActions(u)),
		}
		for ai := range row.Demo {
			if v, ok := fv.eng.Data.DemoValue(u, ai); ok {
				row.Demo[ai] = v
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].NumAct != rows[j].NumAct {
			return rows[i].NumAct > rows[j].NumAct
		}
		return rows[i].User < rows[j].User
	})
	if limit > 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}
