package etl

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"vexus/internal/dataset"
)

// InferOptions configures schema inference from a raw demographic CSV.
type InferOptions struct {
	// MaxCategorical is the largest distinct-value count for which a
	// column is treated as categorical; beyond it, numeric columns are
	// binned and string columns keep their top values with the rest
	// mapped to "other".
	MaxCategorical int
	// NumericBins is the number of equal-frequency bins for numeric
	// columns that exceed MaxCategorical.
	NumericBins int
	// MaxDomain caps the retained domain of high-cardinality string
	// columns (top MaxDomain-1 values + "other").
	MaxDomain int
	Rules     CleanRules
}

// DefaultInferOptions mirrors the preprocessing used throughout the
// experiments: up to 12 categorical values, 5 quantile bins.
func DefaultInferOptions() InferOptions {
	return InferOptions{MaxCategorical: 12, NumericBins: 5, MaxDomain: 12, Rules: DefaultRules()}
}

// InferSchema scans a demographic CSV ("user,<attr>,...") and proposes a
// dataset.Schema: low-cardinality columns become Categorical, numeric
// high-cardinality columns become Numeric with equal-frequency bins, and
// string high-cardinality columns are truncated to their most frequent
// values plus "other". The reader is fully consumed; callers re-open the
// file to load data against the inferred schema.
func InferSchema(r io.Reader, opts InferOptions) (*dataset.Schema, Report, error) {
	var rep Report
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, rep, fmt.Errorf("etl: reading header: %w", err)
	}
	if len(header) < 2 || header[0] != "user" {
		return nil, rep, fmt.Errorf("etl: inference needs header user,<attr>,...; got %v", header)
	}
	type colStat struct {
		counts  map[string]int
		numeric []float64
		allNum  bool
		total   int
	}
	stats := make([]colStat, len(header)-1)
	for i := range stats {
		stats[i] = colStat{counts: map[string]int{}, allNum: true}
	}
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, rep, fmt.Errorf("etl: scanning rows: %w", err)
		}
		rep.RowsRead++
		for c := 1; c < len(row) && c < len(header); c++ {
			v, ok := opts.Rules.CleanField(row[c])
			if !ok {
				continue
			}
			st := &stats[c-1]
			st.counts[v]++
			st.total++
			if st.allNum {
				if x, err := strconv.ParseFloat(v, 64); err == nil {
					st.numeric = append(st.numeric, x)
				} else {
					st.allNum = false
					st.numeric = nil
				}
			}
		}
	}
	attrs := make([]dataset.Attribute, 0, len(stats))
	for c, st := range stats {
		name := header[c+1]
		switch {
		case len(st.counts) == 0:
			// Entirely missing column: single-value domain keeps the
			// schema total, the loader will mark everything missing.
			attrs = append(attrs, dataset.Attribute{
				Name: name, Kind: dataset.Categorical, Values: []string{"unknown"},
			})
		case len(st.counts) <= opts.MaxCategorical:
			values := make([]string, 0, len(st.counts))
			for v := range st.counts {
				values = append(values, v)
			}
			sort.Strings(values)
			attrs = append(attrs, dataset.Attribute{
				Name: name, Kind: dataset.Categorical, Values: values,
			})
		case st.allNum && len(st.numeric) > 0:
			attrs = append(attrs, quantileAttribute(name, st.numeric, opts.NumericBins))
		default:
			attrs = append(attrs, topKAttribute(name, st.counts, opts.MaxDomain))
		}
		rep.InferredAttrs++
	}
	schema, err := dataset.NewSchema(attrs...)
	return schema, rep, err
}

// quantileAttribute builds a Numeric attribute with ~equal-frequency
// bins from observed values.
func quantileAttribute(name string, xs []float64, bins int) dataset.Attribute {
	if bins < 2 {
		bins = 2
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	bounds := make([]float64, 0, bins-1)
	for i := 1; i < bins; i++ {
		q := sorted[i*len(sorted)/bins]
		if len(bounds) == 0 || q > bounds[len(bounds)-1] {
			bounds = append(bounds, q)
		}
	}
	labels := make([]string, len(bounds)+1)
	for i := range labels {
		switch i {
		case 0:
			labels[i] = fmt.Sprintf("≤%g", bounds[0])
		case len(bounds):
			labels[i] = fmt.Sprintf(">%g", bounds[len(bounds)-1])
		default:
			labels[i] = fmt.Sprintf("(%g,%g]", bounds[i-1], bounds[i])
		}
	}
	return dataset.Attribute{Name: name, Kind: dataset.Numeric, Values: labels, Bins: bounds}
}

// topKAttribute keeps the k-1 most frequent values and folds the tail
// into "other".
func topKAttribute(name string, counts map[string]int, k int) dataset.Attribute {
	type vc struct {
		v string
		c int
	}
	all := make([]vc, 0, len(counts))
	for v, c := range counts {
		all = append(all, vc{v, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].v < all[j].v
	})
	if k < 2 {
		k = 2
	}
	n := k - 1
	if n > len(all) {
		n = len(all)
	}
	values := make([]string, 0, n+1)
	for i := 0; i < n; i++ {
		values = append(values, all[i].v)
	}
	values = append(values, "other")
	return dataset.Attribute{Name: name, Kind: dataset.Categorical, Values: values}
}
