package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"vexus/internal/membership"
)

// fakeClock is a hand-advanced clock for failure-detection tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func newTestRoster(t *testing.T, path string, clk *fakeClock) *roster {
	t.Helper()
	d, err := openRoster(GatewayConfig{
		RoutesPath:   path,
		SuspectAfter: 10 * time.Second,
		DownAfter:    30 * time.Second,
		Clock:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// routable reports whether name is in the roster's routing set.
func routable(d *roster, name string) bool {
	for _, m := range d.snapshot() {
		if m.Name == name {
			return m.routable(false)
		}
	}
	return false
}

func TestEpochAdvancesOnlyOnRoutingChanges(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestRoster(t, "", clk)

	if d.Epoch() != 0 {
		t.Fatalf("fresh directory epoch = %d", d.Epoch())
	}
	// Seeding N static members is one routing change, not N.
	d.SeedStatic([]*Shard{RemoteShard("a", "a:1"), RemoteShard("b", "b:1")})
	if d.Epoch() != 1 {
		t.Fatalf("epoch after seed = %d, want 1", d.Epoch())
	}
	// Re-seeding the same list changes nothing.
	d.SeedStatic([]*Shard{RemoteShard("a", "a:1"), RemoteShard("b", "b:1")})
	if d.Epoch() != 1 {
		t.Fatalf("epoch after idempotent re-seed = %d, want 1", d.Epoch())
	}

	// Heartbeats refresh metadata without moving the epoch.
	if _, _, err := d.Heartbeat(membership.Member{Name: "a", Sessions: 7}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Heartbeat(membership.Member{Name: "a", Sessions: 9}); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch after metadata heartbeats = %d, want 1", d.Epoch())
	}

	// Join bumps; duplicate join is rejected without bumping.
	if err := d.Join(RemoteShard("c", "c:1")); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 2 {
		t.Fatalf("epoch after join = %d, want 2", d.Epoch())
	}
	if err := d.Join(RemoteShard("c", "")); err == nil {
		t.Fatal("duplicate join should fail")
	}
	if d.Epoch() != 2 {
		t.Fatalf("epoch after rejected join = %d, want 2", d.Epoch())
	}

	// Remove bumps; removing an unknown member does not.
	if err := d.Remove("c"); err != nil {
		t.Fatal("remove of known member reported unknown")
	}
	if d.Remove("c") == nil {
		t.Fatal("second remove reported known")
	}
	if d.Epoch() != 3 {
		t.Fatalf("epoch after remove = %d, want 3", d.Epoch())
	}
}

func TestSweepTransitionsAndRecovery(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestRoster(t, "", clk)
	d.SeedStatic([]*Shard{RemoteShard("a", "a:1")})
	if err := d.Join(RemoteShard("b", "b:1")); err != nil {
		t.Fatal(err)
	}
	base := d.Epoch()

	// b heartbeats once, then goes silent. a is static and never
	// heartbeated: exempt forever.
	if _, _, err := d.Heartbeat(membership.Member{Name: "b"}); err != nil {
		t.Fatal(err)
	}

	clk.Advance(15 * time.Second) // past suspect, short of down
	evs := d.Sweep()
	if len(evs) != 1 || evs[0].Name != "b" || evs[0].To != membership.StateSuspect {
		t.Fatalf("sweep events = %+v, want b -> suspect", evs)
	}
	// Suspicion is a warning: still routable, epoch unchanged.
	if d.Epoch() != base {
		t.Fatalf("suspect transition moved the epoch: %d -> %d", base, d.Epoch())
	}
	if !routable(d, "b") {
		t.Fatal("suspect member left the routing set")
	}

	clk.Advance(20 * time.Second) // now past down
	evs = d.Sweep()
	if len(evs) != 1 || evs[0].To != membership.StateDown {
		t.Fatalf("sweep events = %+v, want b -> down", evs)
	}
	if d.Epoch() != base+1 {
		t.Fatalf("down transition epoch = %d, want %d", d.Epoch(), base+1)
	}
	if routable(d, "b") {
		t.Fatal("down member still in the routing set")
	}
	if got := d.Down(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Down() = %v", got)
	}
	// Static a never transitioned.
	if d.StateCounts()[string(membership.StateAlive)] != 1 {
		t.Fatalf("counts = %v, want one alive", d.StateCounts())
	}

	// Recovery heartbeat re-enters the routing set and bumps the epoch.
	_, recovered, err := d.Heartbeat(membership.Member{Name: "b"})
	if err != nil || !recovered {
		t.Fatalf("recovery heartbeat: recovered=%v err=%v", recovered, err)
	}
	if d.Epoch() != base+2 {
		t.Fatalf("recovery epoch = %d, want %d", d.Epoch(), base+2)
	}
	if !routable(d, "b") {
		t.Fatal("recovered member not routable")
	}

	// A static member that HAS heartbeated is subject to detection.
	if _, _, err := d.Heartbeat(membership.Member{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(31 * time.Second)
	downed := map[string]bool{}
	for _, ev := range d.Sweep() {
		if ev.To == membership.StateDown {
			downed[ev.Name] = true
		}
	}
	if !downed["a"] {
		t.Fatal("static member that heartbeated once was not failure-detected")
	}
}

func TestHeartbeatUnknownMemberRejected(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	d := newTestRoster(t, "", clk)
	if _, _, err := d.Heartbeat(membership.Member{Name: "ghost"}); err == nil {
		t.Fatal("heartbeat from unadmitted member should fail")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routes.json")
	clk := &fakeClock{now: time.Unix(1000, 0)}

	d := newTestRoster(t, path, clk)
	d.SeedStatic([]*Shard{RemoteShard("a", "a:1")})
	if err := d.Join(RemoteShard("b", "b:1")); err != nil {
		t.Fatal(err)
	}
	if err := d.Join(RemoteShard("c", "c:1")); err != nil {
		t.Fatal(err)
	}
	// Drive b down and c suspect, then reload.
	if _, _, err := d.Heartbeat(membership.Member{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(31 * time.Second)
	d.Sweep()
	epoch := d.Epoch()

	d2 := newTestRoster(t, path, clk)
	if d2.Epoch() != epoch {
		t.Fatalf("reloaded epoch = %d, want %d", d2.Epoch(), epoch)
	}
	// Down survives the restart (fail closed); the roster is intact.
	if routable(d2, "b") {
		t.Fatal("down member reloaded as routable")
	}
	mis := d2.Members()
	if len(mis) != 3 {
		t.Fatalf("reloaded roster: %+v", mis)
	}
	for _, mi := range mis {
		if mi.Name == "a" && !mi.Static {
			t.Fatal("static mark lost across reload")
		}
		if mi.Name == "b" && mi.State != membership.StateDown {
			t.Fatalf("member b reloaded as %s, want down", mi.State)
		}
	}
	// The reloaded-as-alive members get a grace period: an immediate
	// sweep must not mark them down just because the table is old.
	if evs := d2.Sweep(); len(evs) != 0 {
		t.Fatalf("immediate post-reload sweep produced %+v", evs)
	}

	// Corrupt table: refuse to start rather than route from garbage.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openRoster(GatewayConfig{RoutesPath: path}); err == nil {
		t.Fatal("corrupt route table should fail Open")
	}
}

// routesV1 is testdata/routes-v1.json as its writer (the membership
// directory before the roster replaced it) reloaded it: epoch 4, both
// suspects back to alive with a fresh grace, the down member still down.
const routesV1 = `[` +
	`{"name":"127.0.0.1:7101","addr":"127.0.0.1:7101","static":true,"state":"alive"},` +
	`{"name":"127.0.0.1:7102","addr":"127.0.0.1:7102","static":true,"sessions":4,"engines":{"default":2},"state":"alive"},` +
	`{"name":"127.0.0.1:7103","addr":"127.0.0.1:7103","sessions":1,"engines":{"default":2,"spare":1},"state":"down"},` +
	`{"name":"127.0.0.1:7104","addr":"127.0.0.1:7104","sessions":2,"engines":{"default":2},"state":"alive"}]`

// TestRouteTableV1Fixture pins the persisted format: a version-1 table
// written before the roster existed reloads to the same epoch, roster
// and states, dials every member, and persists back in the same bytes
// (suspects excepted: suspicion does not survive a reload).
func TestRouteTableV1Fixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "routes-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "routes.json")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := openRoster(GatewayConfig{RoutesPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 4 {
		t.Fatalf("fixture epoch = %d, want 4", d.Epoch())
	}
	got, _ := json.Marshal(d.Members())
	if string(got) != routesV1 {
		t.Fatalf("fixture roster:\n%s\nwant\n%s", got, routesV1)
	}
	for _, m := range d.snapshot() {
		if m.shard == nil || m.shard.addr != m.Addr {
			t.Fatalf("member %s not dialed from its saved address", m.Name)
		}
	}

	d.mu.Lock()
	d.persistLocked()
	d.mu.Unlock()
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.ReplaceAll(fixture, []byte(`"suspect"`), []byte(`"alive"`)); !bytes.Equal(rewritten, want) {
		t.Fatalf("persisted table differs from the v1 format:\n%s\nwant\n%s", rewritten, want)
	}
}

// FuzzOpenRouteTable: the route-table loader never panics, refuses a
// table with the wrong version or a nameless member, and a table it
// loads persists and reloads to the same epoch, roster and states.
func FuzzOpenRouteTable(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "routes-v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, seed := range []string{
		`{"version":1,"epoch":3,"members":[{"name":"a","addr":"a:1","state":"down"},{"name":"b","state":"suspect"}]}`,
		`{"version":1,"epoch":1,"members":[{"name":"a","state":"alive"},{"name":"a","state":"down"}]}`,
		`{"version":1,"epoch":2,"members":[{"name":"a","static":true,"state":"zombie"}]}`,
		`{"version":1,"members":[{"name":"","addr":"x:1"}]}`,
		`{"version":2,"epoch":1,"members":[]}`,
		`{"version":1}`,
		`null`,
		`[]`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "routes.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := GatewayConfig{RoutesPath: path, Logger: quiet}
		d, err := openRoster(cfg)

		var doc tableDoc
		if json.Unmarshal(raw, &doc) != nil ||
			doc.Version != tableVersion ||
			slices.ContainsFunc(doc.Members, func(mi membership.MemberInfo) bool { return mi.Name == "" }) {
			if err == nil {
				t.Fatalf("loaded an invalid table %q", raw)
			}
			return
		}
		if err != nil {
			t.Fatalf("refused a valid table %q: %v", raw, err)
		}
		epoch := d.Epoch()
		members, _ := json.Marshal(d.Members())
		for _, mi := range d.Members() {
			if mi.State != membership.StateAlive && mi.State != membership.StateDown {
				t.Fatalf("member %q loaded in state %q", mi.Name, mi.State)
			}
		}

		d.mu.Lock()
		d.persistLocked()
		d.mu.Unlock()
		d2, err := openRoster(cfg)
		if err != nil {
			t.Fatalf("persisted table does not reload: %v", err)
		}
		reloaded, _ := json.Marshal(d2.Members())
		if d2.Epoch() != epoch || !bytes.Equal(reloaded, members) {
			t.Fatalf("reload moved the table: epoch %d -> %d, roster\n%s\n->\n%s", epoch, d2.Epoch(), members, reloaded)
		}
	})
}
