package crossfilter

import (
	"testing"
	"testing/quick"

	"vexus/internal/rng"
)

// fixture: 8 records over gender (2 bins) and age (3 bins).
//
//	r: 0 1 2 3 4 5 6 7
//	g: 0 0 0 0 1 1 1 1
//	a: 0 1 2 0 1 2 0 1
func fixture(t *testing.T) (*Engine, *Dimension, *Dimension) {
	t.Helper()
	e := New(8)
	g, err := e.AddDimension("gender", []int{0, 0, 0, 0, 1, 1, 1, 1}, 2, []string{"f", "m"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.AddDimension("age", []int{0, 1, 2, 0, 1, 2, 0, 1}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, g, a
}

func TestUnfilteredHistograms(t *testing.T) {
	e, g, a := fixture(t)
	if e.VisibleCount() != 8 {
		t.Fatalf("visible = %d", e.VisibleCount())
	}
	if h := g.Histogram(); h[0] != 4 || h[1] != 4 {
		t.Fatalf("gender hist = %v", h)
	}
	if h := a.Histogram(); h[0] != 3 || h[1] != 3 || h[2] != 2 {
		t.Fatalf("age hist = %v", h)
	}
}

func TestBrushUpdatesOtherDimensions(t *testing.T) {
	e, g, a := fixture(t)
	// Brush "female" (gender bin 0): records 0..3.
	g.FilterBins(0)
	if e.VisibleCount() != 4 {
		t.Fatalf("visible = %d", e.VisibleCount())
	}
	// Age histogram now sees only records 0..3: ages 0,1,2,0.
	if h := a.Histogram(); h[0] != 2 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("age hist = %v", h)
	}
	// Own histogram ignores own filter (crossfilter semantics).
	if h := g.Histogram(); h[0] != 4 || h[1] != 4 {
		t.Fatalf("gender hist under own filter = %v", h)
	}
}

func TestTwoFilters(t *testing.T) {
	e, g, a := fixture(t)
	g.FilterBins(0)            // records 0..3
	a.FilterBins(0)            // ages == 0: records 0,3,6
	if e.VisibleCount() != 2 { // 0 and 3
		t.Fatalf("visible = %d: %v", e.VisibleCount(), e.Visible())
	}
	vis := e.Visible()
	if len(vis) != 2 || vis[0] != 0 || vis[1] != 3 {
		t.Fatalf("visible = %v", vis)
	}
	// Gender histogram respects the age filter only: records 0,3,6 →
	// f=2, m=1.
	if h := g.Histogram(); h[0] != 2 || h[1] != 1 {
		t.Fatalf("gender hist = %v", h)
	}
	// Age histogram respects the gender filter only: records 0..3.
	if h := a.Histogram(); h[0] != 2 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("age hist = %v", h)
	}
}

func TestClearFilterRestores(t *testing.T) {
	e, g, a := fixture(t)
	g.FilterBins(1)
	a.FilterBins(2)
	g.ClearFilter()
	a.ClearFilter()
	if e.VisibleCount() != 8 {
		t.Fatalf("visible after clear = %d", e.VisibleCount())
	}
	if h := a.Histogram(); h[0] != 3 || h[1] != 3 || h[2] != 2 {
		t.Fatalf("age hist after clear = %v", h)
	}
}

func TestEmptyFilterExcludesAll(t *testing.T) {
	e, g, _ := fixture(t)
	g.FilterBins() // nothing kept
	if e.VisibleCount() != 0 {
		t.Fatalf("visible = %d", e.VisibleCount())
	}
	g.ClearFilter()
	if e.VisibleCount() != 8 {
		t.Fatalf("visible after clear = %d", e.VisibleCount())
	}
}

func TestRefineFilterIncrementally(t *testing.T) {
	e, g, a := fixture(t)
	a.FilterBins(0, 1) // drop age 2
	if e.VisibleCount() != 6 {
		t.Fatalf("visible = %d", e.VisibleCount())
	}
	a.FilterBins(0) // tighten
	if e.VisibleCount() != 3 {
		t.Fatalf("visible = %d", e.VisibleCount())
	}
	a.FilterBins(0, 1, 2) // widen to everything (still "active")
	if e.VisibleCount() != 8 {
		t.Fatalf("visible = %d", e.VisibleCount())
	}
	_ = g
}

func TestIsVisible(t *testing.T) {
	e, g, _ := fixture(t)
	g.FilterBins(0)
	if vis := e.Visible(); len(vis) != 4 || vis[0] != 0 || vis[3] != 3 {
		t.Fatalf("visible = %v, want records 0..3", vis)
	}
}

func TestValidation(t *testing.T) {
	e := New(3)
	if _, err := e.AddDimension("x", []int{0, 1}, 2, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := e.AddDimension("x", []int{0, 1, 5}, 2, nil); err == nil {
		t.Fatal("out-of-range bin accepted")
	}
	if _, err := e.AddDimension("x", []int{0, 0, 0}, 0, nil); err == nil {
		t.Fatal("zero cardinality accepted")
	}
	if _, err := e.AddDimension("x", []int{0, 0, 0}, 2, []string{"only-one"}); err == nil {
		t.Fatal("label mismatch accepted")
	}
}

func TestAddDimensionAfterFilter(t *testing.T) {
	e := New(4)
	g, err := e.AddDimension("g", []int{0, 0, 1, 1}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.FilterBins(0)
	// A dimension added now must see only the 2 visible records.
	a, err := e.AddDimension("a", []int{0, 1, 0, 1}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h := a.Histogram(); h[0] != 1 || h[1] != 1 {
		t.Fatalf("late dimension hist = %v", h)
	}
}

func TestTooManyDimensions(t *testing.T) {
	e := New(1)
	for i := 0; i < MaxDimensions; i++ {
		if _, err := e.AddDimension("d", []int{0}, 1, nil); err != nil {
			t.Fatalf("dim %d rejected: %v", i, err)
		}
	}
	if _, err := e.AddDimension("overflow", []int{0}, 1, nil); err == nil {
		t.Fatal("65th dimension accepted")
	}
}

// TestPropMatchesNaiveRecomputation drives random filter sequences and
// checks every histogram and the visible set against a from-scratch
// recomputation — the central correctness property of the incremental
// engine.
func TestPropMatchesNaiveRecomputation(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(uint64(seed) + 1)
		n := 30 + r.Intn(40)
		nDims := 2 + r.Intn(3)
		cards := make([]int, nDims)
		values := make([][]int, nDims)
		for d := range values {
			cards[d] = 2 + r.Intn(4)
			values[d] = make([]int, n)
			for i := range values[d] {
				values[d][i] = r.Intn(cards[d])
			}
		}
		e := New(n)
		dims := make([]*Dimension, nDims)
		for d := range dims {
			var err error
			dims[d], err = e.AddDimension("d", values[d], cards[d], nil)
			if err != nil {
				return false
			}
		}
		keeps := make([][]bool, nDims)
		for d := range keeps {
			keeps[d] = make([]bool, cards[d])
			for b := range keeps[d] {
				keeps[d][b] = true
			}
		}
		for step := 0; step < 25; step++ {
			d := r.Intn(nDims)
			switch r.Intn(3) {
			case 0:
				var bins []int
				for b := 0; b < cards[d]; b++ {
					if r.Bool(0.5) {
						bins = append(bins, b)
						keeps[d][b] = true
					} else {
						keeps[d][b] = false
					}
				}
				dims[d].FilterBins(bins...)
			case 1:
				lo := r.Intn(cards[d])
				hi := lo + r.Intn(cards[d]-lo)
				var bins []int
				for b := 0; b < cards[d]; b++ {
					keeps[d][b] = b >= lo && b <= hi
					if keeps[d][b] {
						bins = append(bins, b)
					}
				}
				dims[d].FilterBins(bins...)
			case 2:
				for b := range keeps[d] {
					keeps[d][b] = true
				}
				dims[d].ClearFilter()
			}
			if !checkAgainstNaive(e, dims, values, keeps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func checkAgainstNaive(e *Engine, dims []*Dimension, values [][]int, keeps [][]bool) bool {
	n := len(values[0])
	visible := 0
	hists := make([][]int, len(dims))
	for d := range hists {
		hists[d] = make([]int, len(keeps[d]))
	}
	for r := 0; r < n; r++ {
		failAll := 0
		failedBy := -1
		for d := range dims {
			if !keeps[d][values[d][r]] {
				failAll++
				failedBy = d
			}
		}
		if failAll == 0 {
			visible++
			for d := range dims {
				hists[d][values[d][r]]++
			}
		} else if failAll == 1 {
			hists[failedBy][values[failedBy][r]]++
		}
	}
	if e.VisibleCount() != visible {
		return false
	}
	if len(e.Visible()) != visible {
		return false
	}
	for d := range dims {
		got := dims[d].Histogram()
		for b := range got {
			if got[b] != hists[d][b] {
				return false
			}
		}
	}
	return true
}
