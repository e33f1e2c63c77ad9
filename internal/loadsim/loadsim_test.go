package loadsim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseSchedule covers the schedule grammar and its error cases.
func TestParseSchedule(t *testing.T) {
	ops, err := ParseSchedule("15:kill:s1, 40:restart ,90:evict,45:partition:s2")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	want := []ChaosOp{
		{Tick: 15, Op: "kill", Target: "s1"},
		{Tick: 40, Op: "restart"},
		{Tick: 45, Op: "partition", Target: "s2"},
		{Tick: 90, Op: "evict"},
	}
	if len(ops) != len(want) {
		t.Fatalf("got %d ops, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op[%d] = %+v, want %+v", i, ops[i], want[i])
		}
	}
	for _, bad := range []string{"x:kill:s1", "5:explode:s1", "5:kill", "5:kill:s1:extra"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q): expected error", bad)
		}
	}
}

// TestDefaultSchedule sanity-checks the generated schedule parses and
// stays inside the run.
func TestDefaultSchedule(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5} {
		ops, err := ParseSchedule(DefaultSchedule(shards, 100))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, op := range ops {
			if op.Tick < 1 || op.Tick >= 100 {
				t.Errorf("shards=%d: op %+v outside run", shards, op)
			}
		}
	}
}

func smallConfig(workers int) Config {
	return Config{
		Live:     24,
		Shards:   3,
		Ticks:    40,
		Workers:  workers,
		Seed:     7,
		Chaos:    "default",
		DatasetN: 160,
		SpareN:   80,
	}
}

// TestSummaryDeterministicAcrossWorkers is the determinism contract:
// the Summary marshals byte-identically at workers 1, 2 and 8, and the
// fail-closed invariants all hold through the full default chaos
// schedule (kill, restart, partition/heal, drain, evict). The
// workers=1 Summary must also match testdata/summary-small.json
// byte for byte: any change in what the harness observes shows up as
// a diff of that file, which a change that means to move the Summary
// rewrites (json.MarshalIndent with two spaces, plus a newline) and
// explains.
func TestSummaryDeterministicAcrossWorkers(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "summary-small.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base []byte
	for _, workers := range []int{1, 2, 8} {
		s, err := Run(smallConfig(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("workers=%d: marshal: %v", workers, err)
		}
		if base == nil {
			base = enc
			indented, _ := json.MarshalIndent(s, "", "  ")
			if got := string(indented) + "\n"; got != string(golden) {
				t.Errorf("workers=1 summary differs from testdata/summary-small.json:\n%s", got)
			}
			assertFailClosed(t, s)
			if len(s.ChaosApplied) < 5 {
				t.Errorf("chaos schedule underapplied: %v", s.ChaosApplied)
			}
			if s.Restarts != 1 {
				t.Errorf("restarts = %d, want 1", s.Restarts)
			}
			if s.EngineEvictions == 0 {
				t.Errorf("expected engine evictions under the evict op")
			}
			if s.LostByCause[causeEviction] == 0 {
				t.Errorf("expected sessions lost to eviction")
			}
			if s.DrainMoved == 0 {
				t.Errorf("expected sessions moved by drain")
			}
			if s.SSEStarted == 0 || s.SSEDelivered == 0 {
				t.Errorf("expected SSE activity: started=%d delivered=%d", s.SSEStarted, s.SSEDelivered)
			}
			continue
		}
		if string(enc) != string(base) {
			t.Errorf("workers=%d: summary differs from workers=1:\n%s\nvs\n%s", workers, enc, base)
		}
	}
}

func assertFailClosed(t *testing.T, s *Summary) {
	t.Helper()
	if err := s.FailClosed(); err != nil {
		t.Errorf("%v (chaos applied: %v)", err, s.ChaosApplied)
	}
}

// TestFailClosedNamesEachViolation: a clean Summary passes, and each
// of the ten fail-closed conditions on its own fails with an error
// that names it.
func TestFailClosedNamesEachViolation(t *testing.T) {
	clean := Summary{RestartPreserved: true}
	if err := clean.FailClosed(); err != nil {
		t.Fatalf("clean summary: %v", err)
	}
	for _, c := range []struct {
		key string
		set func(*Summary)
	}{
		{"misrouted_sessions", func(s *Summary) { s.MisroutedSessions = 1 }},
		{"etag_breaks", func(s *Summary) { s.EtagBreaks = 2 }},
		{"epoch_violations", func(s *Summary) { s.EpochViolations = 1 }},
		{"chaos_errors", func(s *Summary) { s.ChaosErrors = 1 }},
		{"audit_failures", func(s *Summary) { s.AuditFailures = 3 }},
		{"fail_open_sessions", func(s *Summary) { s.FailOpenSessions = 1 }},
		{"restart_epoch_preserved", func(s *Summary) { s.RestartPreserved = false }},
		{"bad_batches", func(s *Summary) { s.BadBatches = 1 }},
		{"other_errors", func(s *Summary) { s.OtherErrors = 1 }},
		{"drain_moved_live", func(s *Summary) { s.DrainMoved, s.DrainMovedLive = 3, 2 }},
	} {
		s := clean
		c.set(&s)
		err := s.FailClosed()
		if err == nil {
			t.Errorf("%s: violation not reported", c.key)
			continue
		}
		if !strings.Contains(err.Error(), c.key) {
			t.Errorf("%s: error %q does not name it", c.key, err)
		}
		if strings.Count(err.Error(), "=") != 1 {
			t.Errorf("%s: error %q names more than the one violation", c.key, err)
		}
	}
}

// TestChaosKillFailClosed is the CI smoke shape: a 2-shard cluster, 32
// analysts, one shard killed mid-trail. Survivors keep exact
// ETag continuity; sessions on the dead shard fail closed.
func TestChaosKillFailClosed(t *testing.T) {
	s, err := Run(Config{
		Live:     32,
		Shards:   2,
		Ticks:    30,
		Seed:     11,
		Chaos:    "5:kill:s1",
		DatasetN: 160,
		SpareN:   80,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFailClosed(t, s)
	if s.SessionsLost == 0 {
		t.Errorf("killing a shard mid-trail should lose its sessions")
	}
	if s.LostByCause[causeFailure] == 0 {
		t.Errorf("losses should be attributed to failure, got %v", s.LostByCause)
	}
	if s.UnavailableLive == 0 {
		t.Errorf("expected an unavailability window before the detector fires")
	}
	if s.AuditedOK == 0 {
		t.Errorf("expected surviving sessions to audit clean")
	}
}

// TestFaultFreeRun: without chaos nothing is ever lost, unavailable,
// or closed server-side.
func TestFaultFreeRun(t *testing.T) {
	s, err := Run(Config{
		Live:     16,
		Shards:   2,
		Ticks:    25,
		Seed:     3,
		DatasetN: 160,
		SpareN:   80,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFailClosed(t, s)
	if s.SessionsLost != 0 {
		t.Errorf("fault-free run lost %d sessions (%v)", s.SessionsLost, s.LostByCause)
	}
	if s.UnavailableLive != 0 {
		t.Errorf("fault-free run saw unavailability: %d", s.UnavailableLive)
	}
	if s.EngineEvictions != 0 {
		t.Errorf("fault-free run evicted engines: %d", s.EngineEvictions)
	}
	if s.LiveCreates != 16 {
		t.Errorf("live creates = %d, want 16", s.LiveCreates)
	}
}
