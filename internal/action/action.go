// Package action is the typed, versioned vocabulary of VEXUS
// exploration interactions (§II-B) and the single dispatcher every
// frontend routes through: the HTTP server (the /api/v1 batch
// endpoint), session persistence (the SAVE module's v2 trail format),
// the vexus CLI's -script replay, and the synthetic explorers of
// internal/simulate all mutate a session exclusively via Apply. One
// code path means one behavior: a simulated campaign, a replayed save
// file and a live explorer clicking in the browser exercise
// byte-identical state transitions.
//
// An Action is pure data — an operation kind plus the operands that
// kind takes. The JSON form is one object per action with an "op"
// discriminator; decoding is strict in both directions: unknown fields
// are rejected (DisallowUnknownFields), and so are known fields on an
// op that does not take them, so a misspelled or misplaced operand can
// never be silently dropped from a stored trail.
//
// Apply executes one action against a Session (a core.Session plus the
// open STATS focus view) and reports a Result: the optimizer metrics
// when the action ran a selection, and a Diff of everything the action
// changed — shown groups added/removed, focal change, CONTEXT and MEMO
// deltas, and the session's mutation counter — computed against the
// pre-action state. Diffs are what let the server stream changes
// instead of full state snapshots, and the mutation counter is the
// number the session's state ETag derives from.
package action

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Kind discriminates the action union on the wire ("op").
type Kind string

// The complete exploration vocabulary. Every interactive capability of
// a session is one of these; anything not expressible here is not a
// session mutation.
const (
	// Start resets the session to the initial display (k largest
	// groups).
	Start Kind = "start"
	// StartFrom seeds the display with explicit group ids.
	StartFrom Kind = "startFrom"
	// Explore clicks a shown group: reinforce feedback, run the greedy
	// optimizer, replace the display.
	Explore Kind = "explore"
	// Backtrack rewinds to a HISTORY step, discarding later ones.
	Backtrack Kind = "backtrack"
	// Focus opens the STATS module (crossfilter histograms + LDA
	// projection) on a group.
	Focus Kind = "focus"
	// Brush filters the focused group's members to the given values of
	// an attribute; no values clears the attribute's brush.
	Brush Kind = "brush"
	// Unlearn deletes a demographic term from the feedback profile.
	Unlearn Kind = "unlearn"
	// UnlearnUser deletes a user (by external id) from the profile.
	UnlearnUser Kind = "unlearnUser"
	// BookmarkGroup saves a group to MEMO.
	BookmarkGroup Kind = "bookmarkGroup"
	// BookmarkUser saves a user (by external id) to MEMO.
	BookmarkUser Kind = "bookmarkUser"
)

// Action is one exploration interaction: the operation and the operands
// it takes. Only the fields of the given Op are meaningful; the JSON
// codec enforces that no others are present.
type Action struct {
	Op Kind
	// Group is the group id operand of Explore, Focus and
	// BookmarkGroup.
	Group int
	// Groups seeds StartFrom.
	Groups []int
	// Step is the Backtrack history index (0 = initial display).
	Step int
	// Class selects the LDA class attribute for Focus ("" = first
	// schema attribute).
	Class string
	// Attr names the brushed attribute.
	Attr string
	// Values are the brush values kept; empty clears the brush.
	Values []string
	// Field and Value name the unlearned demographic term.
	Field string
	Value string
	// User is the external user id of UnlearnUser and BookmarkUser.
	User string
}

// actionJSON is the wire shape: pointers distinguish "absent" from
// zero, which is what lets the decoder reject operands on ops that do
// not take them and require the ones that do.
type actionJSON struct {
	Op     Kind     `json:"op"`
	Group  *int     `json:"group,omitempty"`
	Groups []int    `json:"groups,omitempty"`
	Step   *int     `json:"step,omitempty"`
	Class  *string  `json:"class,omitempty"`
	Attr   *string  `json:"attr,omitempty"`
	Values []string `json:"values,omitempty"`
	Field  *string  `json:"field,omitempty"`
	Value  *string  `json:"value,omitempty"`
	User   *string  `json:"user,omitempty"`
}

// fieldSpec declares which operands an op requires and which it merely
// allows; everything else is rejected.
type fieldSpec struct {
	required []string
	optional []string
}

var opFields = map[Kind]fieldSpec{
	Start:         {},
	StartFrom:     {required: []string{"groups"}},
	Explore:       {required: []string{"group"}},
	Backtrack:     {required: []string{"step"}},
	Focus:         {required: []string{"group"}, optional: []string{"class"}},
	Brush:         {required: []string{"attr"}, optional: []string{"values"}},
	Unlearn:       {required: []string{"field", "value"}},
	UnlearnUser:   {required: []string{"user"}},
	BookmarkGroup: {required: []string{"group"}},
	BookmarkUser:  {required: []string{"user"}},
}

// Valid reports whether k is a known operation kind.
func (k Kind) Valid() bool {
	_, ok := opFields[k]
	return ok
}

// MarshalJSON emits exactly the fields the op takes (optional operands
// only when non-zero), so stored trails carry no noise fields and
// always re-decode under the strict rules.
func (a Action) MarshalJSON() ([]byte, error) {
	if !a.Op.Valid() {
		return nil, fmt.Errorf("action: unknown op %q", a.Op)
	}
	raw := actionJSON{Op: a.Op}
	spec := opFields[a.Op]
	for _, set := range [2][]string{spec.required, spec.optional} {
		for _, f := range set {
			switch f {
			case "group":
				g := a.Group
				raw.Group = &g
			case "groups":
				raw.Groups = a.Groups
			case "step":
				st := a.Step
				raw.Step = &st
			case "class":
				if a.Class != "" {
					c := a.Class
					raw.Class = &c
				}
			case "attr":
				at := a.Attr
				raw.Attr = &at
			case "values":
				raw.Values = a.Values
			case "field":
				fl := a.Field
				raw.Field = &fl
			case "value":
				v := a.Value
				raw.Value = &v
			case "user":
				u := a.User
				raw.User = &u
			}
		}
	}
	return json.Marshal(raw)
}

// UnmarshalJSON decodes one action strictly: unknown JSON fields,
// unknown ops, missing required operands and operands the op does not
// take are all errors.
func (a *Action) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var raw actionJSON
	if err := dec.Decode(&raw); err != nil {
		return fmt.Errorf("action: %w", err)
	}
	spec, ok := opFields[raw.Op]
	if !ok {
		return fmt.Errorf("action: unknown op %q", raw.Op)
	}
	present := map[string]bool{}
	if raw.Group != nil {
		present["group"] = true
	}
	if raw.Groups != nil {
		present["groups"] = true
	}
	if raw.Step != nil {
		present["step"] = true
	}
	if raw.Class != nil {
		present["class"] = true
	}
	if raw.Attr != nil {
		present["attr"] = true
	}
	if raw.Values != nil {
		present["values"] = true
	}
	if raw.Field != nil {
		present["field"] = true
	}
	if raw.Value != nil {
		present["value"] = true
	}
	if raw.User != nil {
		present["user"] = true
	}
	allowed := map[string]bool{}
	for _, f := range spec.required {
		allowed[f] = true
		if !present[f] {
			return fmt.Errorf("action: op %q requires field %q", raw.Op, f)
		}
	}
	for _, f := range spec.optional {
		allowed[f] = true
	}
	for f := range present {
		if !allowed[f] {
			return fmt.Errorf("action: op %q does not take field %q", raw.Op, f)
		}
	}
	*a = Action{Op: raw.Op, Groups: raw.Groups}
	// An explicit empty list clears the brush exactly like an absent
	// one; keep nil as the one form, which is also what MarshalJSON
	// writes back, so a decoded trail re-decodes deeply equal.
	if len(raw.Values) > 0 {
		a.Values = raw.Values
	}
	if raw.Group != nil {
		a.Group = *raw.Group
	}
	if raw.Step != nil {
		a.Step = *raw.Step
	}
	if raw.Class != nil {
		a.Class = *raw.Class
	}
	if raw.Attr != nil {
		a.Attr = *raw.Attr
	}
	if raw.Field != nil {
		a.Field = *raw.Field
	}
	if raw.Value != nil {
		a.Value = *raw.Value
	}
	if raw.User != nil {
		a.User = *raw.User
	}
	if a.Op == StartFrom && len(a.Groups) == 0 {
		return fmt.Errorf("action: op %q requires a non-empty groups list", raw.Op)
	}
	return nil
}

// String renders the action compactly for logs and error messages.
func (a Action) String() string {
	b, err := json.Marshal(a)
	if err != nil {
		return string(a.Op)
	}
	return string(b)
}

// DecodeLog parses an action log from JSON: either a bare array of
// actions or an object carrying an "actions" array (the shape of a v2
// save file, whose header fields are tolerated and ignored here — full
// header validation belongs to Session.Load). Decoding each action is
// strict.
func DecodeLog(data []byte) ([]Action, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var acts []Action
		if err := json.Unmarshal(trimmed, &acts); err != nil {
			return nil, err
		}
		return acts, nil
	}
	var wrapped struct {
		Version   int      `json:"version"`
		NumGroups int      `json:"numGroups"`
		Actions   []Action `json:"actions"`
	}
	if err := json.Unmarshal(trimmed, &wrapped); err != nil {
		return nil, err
	}
	if wrapped.Actions == nil {
		return nil, fmt.Errorf("action: log has no actions array")
	}
	return wrapped.Actions, nil
}
