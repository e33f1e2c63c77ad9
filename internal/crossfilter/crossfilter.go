// Package crossfilter re-implements the incremental coordinated-views
// engine the paper builds its STATS module on (§II-B
// "Interoperability"): multiple dimensions over one record set, where
// brushing (filtering) one dimension instantaneously updates every
// other dimension's histogram. Efficiency comes from incremental
// maintenance — a brush touches only the records whose bins changed
// state, not the whole dataset — which is how the paper satisfies the
// efficiency principle P3 at the user level.
//
// Semantics follow the original crossfilter library: a dimension's own
// histogram ignores that dimension's filter (so the brushed histogram
// still shows the full distribution), while every other dimension sees
// only records passing all filters.
//
// The core state is one exclusion bitmask per record (bit d set ⇔
// dimension d's filter excludes the record). A record is visible when
// its mask is zero; it counts in dimension d's histogram when its mask
// is zero or exactly bit d.
package crossfilter

import "fmt"

// MaxDimensions bounds the number of dimensions (bitmask width).
const MaxDimensions = 64

// Engine owns the records and their dimensions.
type Engine struct {
	n       int
	dims    []*Dimension
	mask    []uint64 // exclusion bitmask per record
	visible int
}

// New returns an engine over n records (identified as 0..n-1).
func New(n int) *Engine {
	if n < 0 {
		panic("crossfilter: negative record count")
	}
	return &Engine{n: n, mask: make([]uint64, n), visible: n}
}

// VisibleCount returns the number of records passing every filter.
func (e *Engine) VisibleCount() int { return e.visible }

// Visible returns the ids of records passing every filter, ascending.
func (e *Engine) Visible() []int {
	out := make([]int, 0, e.visible)
	for r, m := range e.mask {
		if m == 0 {
			out = append(out, r)
		}
	}
	return out
}

// Dimension is one filterable axis with an ordinal domain [0, card).
type Dimension struct {
	eng    *Engine
	bit    uint64
	labels []string
	values []int     // record -> bin
	byBin  [][]int32 // bin -> records
	kept   []bool    // bin -> passes this dimension's filter
	hist   []int     // bin -> count of records with mask ∈ {0, own bit}
}

// AddDimension registers a dimension. values[r] must be in [0, card)
// for every record; labels may be nil or one per bin. The returned
// Dimension stays owned by the engine.
func (e *Engine) AddDimension(name string, values []int, card int, labels []string) (*Dimension, error) {
	if len(e.dims) >= MaxDimensions {
		return nil, fmt.Errorf("crossfilter: more than %d dimensions", MaxDimensions)
	}
	if len(values) != e.n {
		return nil, fmt.Errorf("crossfilter: dimension %q has %d values for %d records", name, len(values), e.n)
	}
	if card <= 0 {
		return nil, fmt.Errorf("crossfilter: dimension %q has non-positive cardinality", name)
	}
	if labels != nil && len(labels) != card {
		return nil, fmt.Errorf("crossfilter: dimension %q has %d labels for %d bins", name, len(labels), card)
	}
	d := &Dimension{
		eng:    e,
		bit:    1 << uint(len(e.dims)),
		labels: labels,
		values: append([]int(nil), values...),
		byBin:  make([][]int32, card),
		kept:   make([]bool, card),
		hist:   make([]int, card),
	}
	for r, v := range values {
		if v < 0 || v >= card {
			return nil, fmt.Errorf("crossfilter: dimension %q record %d has bin %d outside [0,%d)", name, r, v, card)
		}
		d.byBin[v] = append(d.byBin[v], int32(r))
	}
	for b := range d.kept {
		d.kept[b] = true
	}
	// Adding a dimension never changes visibility (new filter is
	// pass-all), but its histogram must count currently-eligible
	// records: mask 0 (new dim's bit cannot be set yet).
	for r, v := range values {
		if e.mask[r] == 0 {
			d.hist[v]++
		}
	}
	e.dims = append(e.dims, d)
	return d, nil
}

// Labels returns the bin labels (may be nil).
func (d *Dimension) Labels() []string { return d.labels }

// Histogram returns this dimension's bin counts under every *other*
// dimension's filter (crossfilter semantics). The returned slice is a
// copy.
func (d *Dimension) Histogram() []int {
	return append([]int(nil), d.hist...)
}

// FilterBins keeps only the given bins; everything else is excluded.
// An empty call excludes every record on this dimension.
func (d *Dimension) FilterBins(bins ...int) {
	keep := make([]bool, len(d.byBin))
	for _, b := range bins {
		if b >= 0 && b < len(keep) {
			keep[b] = true
		}
	}
	d.apply(keep)
}

// ClearFilter removes this dimension's filter.
func (d *Dimension) ClearFilter() {
	keep := make([]bool, len(d.byBin))
	for b := range keep {
		keep[b] = true
	}
	d.apply(keep)
}

// apply diffs the new keep set against the old and toggles exactly the
// records in changed bins — the O(affected records) incremental update.
func (d *Dimension) apply(keep []bool) {
	for b := range keep {
		switch {
		case d.kept[b] && !keep[b]:
			d.excludeBin(b)
		case !d.kept[b] && keep[b]:
			d.includeBin(b)
		}
		d.kept[b] = keep[b]
	}
}

// excludeBin marks every record of bin b as excluded by d.
func (d *Dimension) excludeBin(b int) {
	e := d.eng
	for _, r32 := range d.byBin[b] {
		r := int(r32)
		m := e.mask[r]
		if m&d.bit != 0 {
			continue // already excluded by this dimension
		}
		// Histogram transitions (see package comment): a record leaves
		// dimension x's histogram iff its mask was 0 (leaves all but
		// d's own — own stays because both mask and own-bit rise) or
		// exactly bit(x) for a single x ≠ d.
		switch {
		case m == 0:
			e.visible--
			for _, x := range e.dims {
				if x != d {
					x.hist[x.values[r]]--
				}
			}
		case isPow2(m):
			x := e.dimByBit(m)
			if x != d {
				x.hist[x.values[r]]--
			}
		}
		e.mask[r] = m | d.bit
	}
}

// includeBin re-admits every record of bin b on dimension d.
func (d *Dimension) includeBin(b int) {
	e := d.eng
	for _, r32 := range d.byBin[b] {
		r := int(r32)
		m := e.mask[r]
		if m&d.bit == 0 {
			continue
		}
		m &^= d.bit
		e.mask[r] = m
		switch {
		case m == 0:
			e.visible++
			for _, x := range e.dims {
				if x != d {
					x.hist[x.values[r]]++
				}
			}
		case isPow2(m):
			x := e.dimByBit(m)
			if x != d {
				x.hist[x.values[r]]++
			}
		}
	}
}

func isPow2(m uint64) bool { return m != 0 && m&(m-1) == 0 }

func (e *Engine) dimByBit(bit uint64) *Dimension {
	for _, d := range e.dims {
		if d.bit == bit {
			return d
		}
	}
	panic("crossfilter: unknown dimension bit")
}
