package dataset

import (
	"cmp"
	"fmt"
	"slices"
)

// User is one individual in the dataset. Demo[i] is the interned value
// id of attribute i in the schema, or Missing when unknown.
type User struct {
	ID   string
	Demo []int
}

// Missing marks an absent demographic value.
const Missing = -1

// Item is something users act on (a book, a paper venue, a product).
type Item struct {
	ID    string
	Label string
}

// Action is one record of the generic schema [user, item, value]
// (§II-A): user U rated/bought/published item I with value V.
// User and Item are indices into Dataset.Users / Dataset.Items.
type Action struct {
	User  int
	Item  int
	Value float64
	Time  int64 // optional epoch seconds; 0 when absent
}

// Dataset holds users, items and actions with interned ids.
// Construct with NewBuilder; a built Dataset is immutable and safe for
// concurrent readers.
type Dataset struct {
	Schema  *Schema
	Users   []User
	Items   []Item
	Actions []Action

	userIndex map[string]int
	itemIndex map[string]int

	// actionsByUser[u] lists indices into Actions for user u, in
	// insertion order. Built once at Build time.
	actionsByUser [][]int32
}

// NumUsers returns the number of users.
func (d *Dataset) NumUsers() int { return len(d.Users) }

// NumItems returns the number of items.
func (d *Dataset) NumItems() int { return len(d.Items) }

// NumActions returns the number of actions.
func (d *Dataset) NumActions() int { return len(d.Actions) }

// UserIndex returns the index of the user with the given external id,
// or -1.
func (d *Dataset) UserIndex(id string) int {
	if i, ok := d.userIndex[id]; ok {
		return i
	}
	return -1
}

// ItemIndex returns the index of the item with the given external id,
// or -1.
func (d *Dataset) ItemIndex(id string) int {
	if i, ok := d.itemIndex[id]; ok {
		return i
	}
	return -1
}

// UserActions returns the indices (into Actions) of user u's actions.
// The returned slice must not be modified.
func (d *Dataset) UserActions(u int) []int32 {
	if u < 0 || u >= len(d.actionsByUser) {
		return nil
	}
	return d.actionsByUser[u]
}

// DemoValue returns the string value of attribute attr for user u, and
// whether it is present.
func (d *Dataset) DemoValue(u, attr int) (string, bool) {
	if u < 0 || u >= len(d.Users) || attr < 0 || attr >= d.Schema.NumAttrs() {
		return "", false
	}
	v := d.Users[u].Demo[attr]
	if v == Missing {
		return "", false
	}
	return d.Schema.Attrs[attr].Values[v], true
}

// Builder assembles a Dataset incrementally; it is the target of both
// the ETL import path and the synthetic generators.
type Builder struct {
	schema  *Schema
	users   []User
	items   []Item
	actions []Action

	userIndex map[string]int
	itemIndex map[string]int
	err       error
}

// NewBuilder returns a builder over the given schema.
func NewBuilder(schema *Schema) *Builder {
	return &Builder{
		schema:    schema,
		userIndex: make(map[string]int),
		itemIndex: make(map[string]int),
	}
}

// Err returns the first recorded construction error, if any.
func (b *Builder) Err() error { return b.err }

// AddUser registers a user with raw demographic values keyed by
// attribute name; unknown attributes are an error, unknown values of a
// known attribute are an error (clean them in ETL first), and missing
// attributes are stored as Missing. Returns the user's index.
func (b *Builder) AddUser(id string, demo map[string]string) int {
	if b.err != nil {
		return -1
	}
	if id == "" {
		b.err = fmt.Errorf("dataset: empty user id")
		return -1
	}
	if _, dup := b.userIndex[id]; dup {
		b.err = fmt.Errorf("dataset: duplicate user id %q", id)
		return -1
	}
	u := User{ID: id, Demo: make([]int, b.schema.NumAttrs())}
	for i := range u.Demo {
		u.Demo[i] = Missing
	}
	for name, value := range demo {
		ai := b.schema.AttrIndex(name)
		if ai < 0 {
			b.err = fmt.Errorf("dataset: user %q: unknown attribute %q", id, name)
			return -1
		}
		vi := b.schema.Attrs[ai].ValueIndex(value)
		if vi < 0 {
			b.err = fmt.Errorf("dataset: user %q: attribute %q has out-of-domain value %q", id, name, value)
			return -1
		}
		u.Demo[ai] = vi
	}
	idx := len(b.users)
	b.users = append(b.users, u)
	b.userIndex[id] = idx
	return idx
}

// AddUserBinned registers a user whose numeric attributes are provided
// as raw float64 observations (binned here) and whose discrete
// attributes are provided as strings.
func (b *Builder) AddUserBinned(id string, discrete map[string]string, numeric map[string]float64) int {
	if b.err != nil {
		return -1
	}
	demo := make(map[string]string, len(discrete)+len(numeric))
	for k, v := range discrete {
		demo[k] = v
	}
	for name, x := range numeric {
		ai := b.schema.AttrIndex(name)
		if ai < 0 {
			b.err = fmt.Errorf("dataset: user %q: unknown numeric attribute %q", id, name)
			return -1
		}
		a := &b.schema.Attrs[ai]
		if a.Kind != Numeric {
			b.err = fmt.Errorf("dataset: user %q: attribute %q is %s, not numeric", id, name, a.Kind)
			return -1
		}
		demo[name] = a.Values[a.BinIndex(x)]
	}
	return b.AddUser(id, demo)
}

// HasUser reports whether a user with the given external id has been
// registered (the ETL action loader's referential check).
func (b *Builder) HasUser(id string) bool {
	_, ok := b.userIndex[id]
	return ok
}

// AddItem registers an item, returning its index. Adding the same id
// twice returns the existing index.
func (b *Builder) AddItem(id, label string) int {
	if b.err != nil {
		return -1
	}
	if id == "" {
		b.err = fmt.Errorf("dataset: empty item id")
		return -1
	}
	if i, ok := b.itemIndex[id]; ok {
		return i
	}
	idx := len(b.items)
	b.items = append(b.items, Item{ID: id, Label: label})
	b.itemIndex[id] = idx
	return idx
}

// AddAction records [user, item, value] by external ids, creating the
// item on first sight. The user must already exist.
func (b *Builder) AddAction(userID, itemID string, value float64, ts int64) {
	if b.err != nil {
		return
	}
	u, ok := b.userIndex[userID]
	if !ok {
		b.err = fmt.Errorf("dataset: action references unknown user %q", userID)
		return
	}
	it := b.AddItem(itemID, itemID)
	b.actions = append(b.actions, Action{User: u, Item: it, Value: value, Time: ts})
}

// AddActionByIndex records an action by internal indices (generator fast
// path). Indices are validated at Build time.
func (b *Builder) AddActionByIndex(user, item int, value float64, ts int64) {
	if b.err != nil {
		return
	}
	b.actions = append(b.actions, Action{User: user, Item: item, Value: value, Time: ts})
}

// Build finalizes the dataset. It validates action indices and
// constructs the per-user action lists.
func (b *Builder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	for i, a := range b.actions {
		if a.User < 0 || a.User >= len(b.users) {
			return nil, fmt.Errorf("dataset: action %d has invalid user index %d", i, a.User)
		}
		if a.Item < 0 || a.Item >= len(b.items) {
			return nil, fmt.Errorf("dataset: action %d has invalid item index %d", i, a.Item)
		}
	}
	d := &Dataset{
		Schema:    b.schema,
		Users:     b.users,
		Items:     b.items,
		Actions:   b.actions,
		userIndex: b.userIndex,
		itemIndex: b.itemIndex,
	}
	d.actionsByUser = make([][]int32, len(d.Users))
	counts := make([]int, len(d.Users))
	for _, a := range d.Actions {
		counts[a.User]++
	}
	for u, c := range counts {
		if c > 0 {
			d.actionsByUser[u] = make([]int32, 0, c)
		}
	}
	for i, a := range d.Actions {
		d.actionsByUser[a.User] = append(d.actionsByUser[a.User], int32(i))
	}
	return d, nil
}

// Restore rebuilds a Dataset from its exported parts — the snapshot
// deserialization path (internal/store). Users carry already-interned
// Demo ids and actions carry internal indices; Restore re-derives every
// unexported structure (id maps, per-user action lists) exactly as
// Build does, so a restored dataset is indistinguishable from the one
// the parts were taken from.
func Restore(schema *Schema, users []User, items []Item, actions []Action) (*Dataset, error) {
	if schema == nil {
		return nil, fmt.Errorf("dataset: restore with nil schema")
	}
	b := &Builder{
		schema:    schema,
		users:     users,
		items:     items,
		actions:   actions,
		userIndex: make(map[string]int, len(users)),
		itemIndex: make(map[string]int, len(items)),
	}
	for i, u := range users {
		if len(u.Demo) != schema.NumAttrs() {
			return nil, fmt.Errorf("dataset: user %q has %d demo values, schema has %d attrs", u.ID, len(u.Demo), schema.NumAttrs())
		}
		for ai, v := range u.Demo {
			if v != Missing && (v < 0 || v >= len(schema.Attrs[ai].Values)) {
				return nil, fmt.Errorf("dataset: user %q attribute %q has out-of-domain id %d", u.ID, schema.Attrs[ai].Name, v)
			}
		}
		if _, dup := b.userIndex[u.ID]; dup {
			return nil, fmt.Errorf("dataset: duplicate user id %q", u.ID)
		}
		b.userIndex[u.ID] = i
	}
	for i, it := range items {
		if _, dup := b.itemIndex[it.ID]; dup {
			return nil, fmt.Errorf("dataset: duplicate item id %q", it.ID)
		}
		b.itemIndex[it.ID] = i
	}
	return b.Build()
}

// TopItems returns the n most-acted-on item indices, most popular first.
// Ties break by ascending item index for determinism.
func (d *Dataset) TopItems(n int) []int {
	counts := make([]int, len(d.Items))
	for _, a := range d.Actions {
		counts[a.Item]++
	}
	idx := make([]int, len(d.Items))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(counts[b], counts[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}
