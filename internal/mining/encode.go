package mining

import (
	"fmt"
	"sort"

	"vexus/internal/dataset"
	"vexus/internal/groups"
)

// EncodeOptions selects which dimensions of a dataset become mining
// terms. Demographics always produce one term per (attribute, value).
// Action-derived terms capture behaviour: a "likes:<item>" term when a
// user's action value on a popular item reaches LikeThreshold, and an
// "activity" ordinal term from per-user action counts. This mirrors the
// paper's group vocabulary, which mixes demographics ("engineers in
// MA") with actions ("who watch romantic movies").
type EncodeOptions struct {
	// Demographics includes one term per present demographic value.
	Demographics bool
	// TopItems derives per-item terms for the N most popular items
	// (0 = none). Item terms are "item:<id>=liked" / "=disliked".
	TopItems int
	// LikeThreshold splits item actions into liked/disliked. Actions
	// with value ≥ threshold are "liked". Ignored when TopItems == 0.
	LikeThreshold float64
	// ActivityLevels derives an ordinal "activity" attribute with this
	// many equal-frequency levels from per-user action counts
	// (0 = none, minimum 2 otherwise).
	ActivityLevels int
}

// DefaultEncodeOptions covers demographics plus behaviour over the top
// 32 items and a 4-level activity attribute.
func DefaultEncodeOptions() EncodeOptions {
	return EncodeOptions{
		Demographics:   true,
		TopItems:       32,
		LikeThreshold:  4,
		ActivityLevels: 4,
	}
}

// activityLabels names equal-frequency activity levels, lowest first.
var activityLabels = []string{"inactive", "casual", "active", "extremely active", "hyperactive", "l6", "l7", "l8"}

// Encode converts a dataset into mining transactions under the given
// options. The returned vocabulary is freshly interned; term ids are
// deterministic for a fixed dataset and options.
func Encode(d *dataset.Dataset, opts EncodeOptions) (*Transactions, error) {
	if opts.ActivityLevels > len(activityLabels) {
		return nil, fmt.Errorf("mining: at most %d activity levels", len(activityLabels))
	}
	vocab := groups.NewVocab()
	perUser := make([][]groups.TermID, d.NumUsers())

	if opts.Demographics {
		for u := range d.Users {
			for ai := range d.Schema.Attrs {
				v := d.Users[u].Demo[ai]
				if v == dataset.Missing {
					continue
				}
				id := vocab.Intern(d.Schema.Attrs[ai].Name, d.Schema.Attrs[ai].Values[v])
				perUser[u] = append(perUser[u], id)
			}
		}
	}

	if opts.TopItems > 0 {
		// terms[item] holds a top item's liked and disliked term ids,
		// each -1 until its first action interns it, so ids keep
		// first-seen order; items outside the top stay nil.
		terms := make([]*[2]groups.TermID, d.NumItems())
		for _, it := range d.TopItems(opts.TopItems) {
			terms[it] = &[2]groups.TermID{-1, -1}
		}
		for _, a := range d.Actions {
			ids := terms[a.Item]
			if ids == nil {
				continue
			}
			k, value := 0, "liked"
			if a.Value < opts.LikeThreshold {
				k, value = 1, "disliked"
			}
			if ids[k] < 0 {
				ids[k] = vocab.Intern("item:"+d.Items[a.Item].ID, value)
			}
			perUser[a.User] = append(perUser[a.User], ids[k])
		}
	}

	if opts.ActivityLevels > 0 {
		levels := opts.ActivityLevels
		if levels < 2 {
			levels = 2
		}
		counts := d.ActivityCount()
		bounds := quantileBounds(counts, levels)
		for u, c := range counts {
			lvl := levelOf(c, bounds)
			id := vocab.Intern("activity", activityLabels[lvl])
			perUser[u] = append(perUser[u], id)
		}
	}

	return NewTransactions(vocab, perUser), nil
}

// quantileBounds returns ascending cut points splitting counts into
// ~equal-frequency levels; duplicates collapse, so fewer levels may
// result on highly tied data. Empty input yields no bounds (every
// count maps to level 0).
func quantileBounds(counts []int, levels int) []int {
	if len(counts) == 0 {
		return nil
	}
	sorted := make([]int, len(counts))
	copy(sorted, counts)
	sort.Ints(sorted)
	bounds := make([]int, 0, levels-1)
	for i := 1; i < levels; i++ {
		q := sorted[i*len(sorted)/levels]
		if len(bounds) == 0 || q > bounds[len(bounds)-1] {
			bounds = append(bounds, q)
		}
	}
	return bounds
}

// levelOf maps a count to its level: level i covers counts in
// (bounds[i-1], bounds[i]].
func levelOf(c int, bounds []int) int {
	i := sort.SearchInts(bounds, c)
	return i
}
