// Package etl implements the extract-transform-load stage that precedes
// group discovery in the VEXUS architecture (Fig. 1): CSV ingestion of
// the generic [user, item, value] schema, demographic tables, cleaning
// rules, and schema inference for unknown demographic files.
package etl

import (
	"strconv"
	"strings"
)

// CleanRules configures record cleaning. The zero value applies only
// whitespace trimming.
type CleanRules struct {
	// TrimSpace trims surrounding whitespace from every field.
	// Enabled by default in DefaultRules.
	TrimSpace bool
	// LowerCase folds demographic values to lower case so that
	// "Female"/"female" intern to one value.
	LowerCase bool
	// NullMarkers are field contents treated as missing ("", "NULL",
	// "N/A", ...). Matching is case-insensitive after trimming.
	NullMarkers []string
	// MinValue/MaxValue bound the action value; out-of-range behaviour
	// is set by ClampValues. Both zero means no bound.
	MinValue, MaxValue float64
	// ClampValues clamps out-of-range action values into
	// [MinValue, MaxValue] instead of dropping the record.
	ClampValues bool
	// DropDuplicateActions drops repeated (user, item) pairs, keeping
	// the first occurrence.
	DropDuplicateActions bool
}

// DefaultRules returns the cleaning configuration used by the VEXUS
// pipeline: trim, fold case, standard null markers, dedup.
func DefaultRules() CleanRules {
	return CleanRules{
		TrimSpace:            true,
		LowerCase:            true,
		NullMarkers:          []string{"", "null", "n/a", "na", "none", "-", "?"},
		DropDuplicateActions: true,
	}
}

// CleanField applies field-level rules and reports whether the value is
// present (false = missing).
func (r CleanRules) CleanField(s string) (string, bool) {
	if r.TrimSpace {
		s = strings.TrimSpace(s)
	}
	probe := strings.ToLower(s)
	for _, m := range r.NullMarkers {
		if probe == m {
			return "", false
		}
	}
	if r.LowerCase {
		s = probe
	}
	return s, true
}

// CleanValue parses and bounds an action value. ok is false when the
// record should be dropped (unparseable, or out of range without
// clamping).
func (r CleanRules) CleanValue(s string) (v float64, ok bool) {
	s = strings.TrimSpace(s)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	if r.MinValue == 0 && r.MaxValue == 0 {
		return v, true
	}
	if v < r.MinValue {
		if !r.ClampValues {
			return 0, false
		}
		v = r.MinValue
	}
	if v > r.MaxValue {
		if !r.ClampValues {
			return 0, false
		}
		v = r.MaxValue
	}
	return v, true
}

// Report accumulates what the cleaning stage did, so the import is
// auditable.
type Report struct {
	RowsRead      int
	RowsKept      int
	RowsDropped   int
	BadValue      int
	DuplicateRows int
	MissingFields int
	ShortRows     int
	UnknownUsers  int
	OutOfDomain   int
	ValuesClamped int
	InferredAttrs int
	DistinctUsers int
	DistinctItems int
}
