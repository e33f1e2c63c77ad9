// Package dataset defines the user-data model at the heart of VEXUS:
// users carrying demographic attributes, items, and actions in the
// paper's generic schema [user, item, value] (§II-A). Demographic values
// are interned per attribute so that the rest of the system (mining,
// groups, feedback) can work with compact integer ids.
package dataset

import (
	"fmt"
	"sort"
)

// AttrKind classifies a demographic attribute.
type AttrKind int

const (
	// Categorical attributes have an unordered finite domain
	// (gender, country, occupation).
	Categorical AttrKind = iota
	// Ordinal attributes have an ordered finite domain
	// (seniority: junior < senior < very senior).
	Ordinal
	// Numeric attributes are continuous and must be binned into an
	// ordinal domain before group mining (age, publication count).
	Numeric
)

// String returns the lowercase kind name.
func (k AttrKind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Ordinal:
		return "ordinal"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("AttrKind(%d)", int(k))
	}
}

// Attribute describes one demographic dimension. For Categorical and
// Ordinal attributes, Values is the interned domain: a user's value for
// the attribute is an index into Values. Numeric attributes carry bin
// boundaries; the interned domain is the list of bin labels.
type Attribute struct {
	Name   string
	Kind   AttrKind
	Values []string  // interned domain (bin labels for Numeric)
	Bins   []float64 // ascending upper bounds, Numeric only; len == len(Values)-1

	valueIndex map[string]int
}

// ValueIndex returns the interned id of value, or -1 if it is not in the
// domain.
func (a *Attribute) ValueIndex(value string) int {
	if a.valueIndex == nil {
		a.valueIndex = make(map[string]int, len(a.Values))
		for i, v := range a.Values {
			a.valueIndex[v] = i
		}
	}
	if i, ok := a.valueIndex[value]; ok {
		return i
	}
	return -1
}

// BinIndex maps a numeric observation to its bin id. The i-th bin covers
// (Bins[i-1], Bins[i]]; values above the last bound fall in the final
// bin. Panics if the attribute is not Numeric.
func (a *Attribute) BinIndex(x float64) int {
	if a.Kind != Numeric {
		panic(fmt.Sprintf("dataset: BinIndex on %s attribute %q", a.Kind, a.Name))
	}
	i := sort.SearchFloat64s(a.Bins, x)
	if i >= len(a.Values) {
		i = len(a.Values) - 1
	}
	return i
}

// Schema is an ordered list of demographic attributes.
type Schema struct {
	Attrs []Attribute

	attrIndex map[string]int
}

// NewSchema builds a schema from the given attributes, validating that
// names are unique and non-empty and that each domain is consistent.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{Attrs: attrs, attrIndex: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("dataset: attribute %d has empty name", i)
		}
		if _, dup := s.attrIndex[a.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute %q", a.Name)
		}
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("dataset: attribute %q has empty domain", a.Name)
		}
		seen := make(map[string]bool, len(a.Values))
		for _, v := range a.Values {
			if seen[v] {
				return nil, fmt.Errorf("dataset: attribute %q has duplicate value %q", a.Name, v)
			}
			seen[v] = true
		}
		if a.Kind == Numeric && len(a.Bins) != len(a.Values)-1 {
			return nil, fmt.Errorf("dataset: numeric attribute %q needs len(Bins) == len(Values)-1, got %d vs %d",
				a.Name, len(a.Bins), len(a.Values))
		}
		if a.Kind == Numeric && !sort.Float64sAreSorted(a.Bins) {
			return nil, fmt.Errorf("dataset: numeric attribute %q has unsorted bins", a.Name)
		}
		s.attrIndex[a.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for literals in tests
// and generators.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	if i, ok := s.attrIndex[name]; ok {
		return i
	}
	return -1
}

// NumAttrs returns the number of attributes.
func (s *Schema) NumAttrs() int { return len(s.Attrs) }
