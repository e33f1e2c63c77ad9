package dataset

import "math"

// AttrDistribution is the histogram of one attribute over a set of
// users: Counts[v] users carry interned value v, Missing users carry no
// value. It backs the STATS module's histograms (§II-B "Granular
// Analysis": "histograms will show an exhaustive list of demographic
// distributions").
type AttrDistribution struct {
	Attr    string
	Values  []string
	Counts  []int
	Missing int
	Total   int
}

// Fraction returns the share of non-missing users carrying value v.
func (d *AttrDistribution) Fraction(v int) float64 {
	known := d.Total - d.Missing
	if known == 0 || v < 0 || v >= len(d.Counts) {
		return 0
	}
	return float64(d.Counts[v]) / float64(known)
}

// Distribution computes the histogram of attribute attr over the given
// user indices. A nil users slice means all users.
func (d *Dataset) Distribution(attr int, users []int) AttrDistribution {
	a := d.Schema.Attrs[attr]
	dist := AttrDistribution{
		Attr:   a.Name,
		Values: a.Values,
		Counts: make([]int, len(a.Values)),
	}
	consider := func(u int) {
		dist.Total++
		v := d.Users[u].Demo[attr]
		if v == Missing {
			dist.Missing++
			return
		}
		dist.Counts[v]++
	}
	if users == nil {
		for u := range d.Users {
			consider(u)
		}
	} else {
		for _, u := range users {
			consider(u)
		}
	}
	return dist
}

// ValueHistogram buckets action values into integer bins between lo and
// hi inclusive (e.g. rating scales 1..5 or 1..10). Out-of-range values
// are clamped into the boundary bins. A nil users slice means all
// actions; otherwise only actions of the given users count.
func (d *Dataset) ValueHistogram(lo, hi int, users []int) []int {
	if hi < lo {
		lo, hi = hi, lo
	}
	bins := make([]int, hi-lo+1)
	add := func(v float64) {
		i := int(math.Round(v)) - lo
		if i < 0 {
			i = 0
		}
		if i >= len(bins) {
			i = len(bins) - 1
		}
		bins[i]++
	}
	if users == nil {
		for _, a := range d.Actions {
			add(a.Value)
		}
		return bins
	}
	for _, u := range users {
		for _, ai := range d.UserActions(u) {
			add(d.Actions[ai].Value)
		}
	}
	return bins
}

// ActivityCount returns the number of actions per user, the raw signal
// behind derived attributes such as "publication rate: extremely
// active".
func (d *Dataset) ActivityCount() []int {
	counts := make([]int, len(d.Users))
	for _, a := range d.Actions {
		counts[a.User]++
	}
	return counts
}
