// Package groups defines the central object of VEXUS: the user group.
// A group is a set of users sharing common demographics and actions
// (§I "Aggregated Analytics"); its description is a conjunction of
// terms such as gender=female ∧ topic=web-search. Groups discovered
// offline form an undirected graph whose edges connect non-disjoint
// groups (§II); exploration is navigation in that graph.
package groups

import (
	"sort"
	"strconv"
	"strings"
)

// TermID identifies an interned (field, value) pair.
type TermID int32

// Term is one predicate of a group description: Field = Value. Fields
// cover both demographics ("gender") and action-derived dimensions
// ("venue", "likes-genre").
type Term struct {
	Field string
	Value string
}

// String renders "field=value".
func (t Term) String() string { return t.Field + "=" + t.Value }

// Vocab interns terms so that group descriptions, transactions and the
// feedback vector can all index the same compact id space.
type Vocab struct {
	terms []Term
	index map[Term]TermID
	// fieldIndex numbers the distinct field names in first-seen order;
	// byField[f] lists the term ids of field number f.
	fieldIndex map[string]int
	byField    [][]TermID
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{index: make(map[Term]TermID), fieldIndex: make(map[string]int)}
}

// Intern returns the id for the term, creating it on first use.
func (v *Vocab) Intern(field, value string) TermID {
	t := Term{Field: field, Value: value}
	if id, ok := v.index[t]; ok {
		return id
	}
	id := TermID(len(v.terms))
	v.terms = append(v.terms, t)
	v.index[t] = id
	fi, ok := v.fieldIndex[field]
	if !ok {
		fi = len(v.byField)
		v.fieldIndex[field] = fi
		v.byField = append(v.byField, nil)
	}
	v.byField[fi] = append(v.byField[fi], id)
	return id
}

// Lookup returns the id for the term, or -1 when it is not interned.
func (v *Vocab) Lookup(field, value string) TermID {
	if id, ok := v.index[Term{Field: field, Value: value}]; ok {
		return id
	}
	return -1
}

// Term returns the term for an id. Panics on out-of-range ids.
func (v *Vocab) Term(id TermID) Term {
	return v.terms[id]
}

// Len returns the number of interned terms.
func (v *Vocab) Len() int { return len(v.terms) }

// TermsOfField returns the ids of all terms with the given field name.
func (v *Vocab) TermsOfField(field string) []TermID {
	if fi, ok := v.fieldIndex[field]; ok {
		return v.byField[fi]
	}
	return nil
}

// Description is a sorted conjunction of term ids (ascending, unique).
// The empty description denotes the group of all users.
type Description []TermID

// NewDescription sorts and deduplicates ids into a canonical form.
func NewDescription(ids ...TermID) Description {
	d := make(Description, len(ids))
	copy(d, ids)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	out := d[:0]
	for i, id := range d {
		if i == 0 || id != d[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// Contains reports whether id is one of the description's terms.
func (d Description) Contains(id TermID) bool {
	i := sort.Search(len(d), func(i int) bool { return d[i] >= id })
	return i < len(d) && d[i] == id
}

// Subsumes reports whether d's terms are a subset of other's terms,
// i.e. d describes a superset group (fewer constraints ⊇ more users).
func (d Description) Subsumes(other Description) bool {
	i := 0
	for _, id := range d {
		for i < len(other) && other[i] < id {
			i++
		}
		if i >= len(other) || other[i] != id {
			return false
		}
	}
	return true
}

// Equal reports term-for-term equality.
func (d Description) Equal(other Description) bool {
	if len(d) != len(other) {
		return false
	}
	for i := range d {
		if d[i] != other[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for map indexing: the term ids
// in decimal, comma-separated ("1,23").
func (d Description) Key() string { return string(d.appendKey(nil)) }

// appendKey appends d's Key to b.
func (d Description) appendKey(b []byte) []byte {
	for i, id := range d {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return b
}

// Label renders the human-readable description, e.g.
// "gender=female ∧ topic=web search". The empty description renders as
// "⟨all users⟩".
func (d Description) Label(v *Vocab) string {
	if len(d) == 0 {
		return "⟨all users⟩"
	}
	parts := make([]string, len(d))
	for i, id := range d {
		parts[i] = v.Term(id).String()
	}
	return strings.Join(parts, " ∧ ")
}
