package cluster

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"vexus/internal/action"
	"vexus/internal/datagen"
	"vexus/internal/serve"
)

// TestMigrationEquivalenceAcrossWorkers is the cluster determinism
// contract, pinned end to end: one exploration trail is driven twice —
// once against a single-node server, once through a gateway whose
// owning shard is drained mid-trail, forcing a replay-based migration
// — and the two runs must produce byte-identical state bodies and the
// same mutation-counter (ETag) sequence at every step. Engines built
// at workers 1, 2 and 8 are bit-identical by the repo's slot-write
// contract, so the walk repeats per worker count and the final states
// must also agree across counts. Run with -race (CI does).
func TestMigrationEquivalenceAcrossWorkers(t *testing.T) {
	// The trail: one of everything that mutates differently, each step
	// derived from the session's current display so the walk is
	// self-consistent under the deterministic optimizer.
	data, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: fixtureSpec.N, Seed: fixtureSpec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	user := data.Users[0].ID // the fixture dataset's first user
	steps := []func(cur stateLite) action.Action{
		func(cur stateLite) action.Action {
			return action.Action{Op: action.Explore, Group: cur.Shown[0].ID}
		},
		func(cur stateLite) action.Action {
			return action.Action{Op: action.Focus, Group: cur.Shown[1].ID, Class: "gender"}
		},
		func(cur stateLite) action.Action {
			return action.Action{Op: action.Brush, Attr: "gender", Values: []string{"female"}}
		},
		func(cur stateLite) action.Action {
			return action.Action{Op: action.BookmarkGroup, Group: cur.Shown[2].ID}
		},
		func(cur stateLite) action.Action {
			return action.Action{Op: action.Unlearn, Field: "gender", Value: "male"}
		},
		func(cur stateLite) action.Action {
			return action.Action{Op: action.Explore, Group: cur.Shown[0].ID}
		},
		func(cur stateLite) action.Action {
			return action.Action{Op: action.Backtrack, Step: 1}
		},
		func(cur stateLite) action.Action {
			return action.Action{Op: action.BookmarkUser, User: user}
		},
		func(cur stateLite) action.Action {
			return action.Action{Op: action.Explore, Group: cur.Shown[1].ID}
		},
	}
	const drainAfter = 4 // steps applied on the original owner

	finals := map[int]string{}
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Reference: the same trail on a single node, no cluster.
			single := httptest.NewServer(specShard(t, fixtureSpec, workers, serve.DefaultConfig()).Routes())
			defer single.Close()
			refStates := make([]string, 0, len(steps))
			refMuts := make([]uint64, 0, len(steps))
			refSt, _ := createV1(t, single.URL)
			cur := refSt
			for _, mk := range steps {
				st, body, etag := applyOne(t, single.URL, refSt.Session, mk(cur))
				refStates = append(refStates, normalize(body, refSt.Session))
				refMuts = append(refMuts, mutations(t, etag, refSt.Session))
				cur = st
			}

			// Clustered: same trail, with the session's shard drained
			// mid-trail — the second half runs on the replayed copy.
			gw, ts := workersCluster(t, workers, 3)
			clSt, _ := createV1(t, ts.URL)
			cur = clSt
			for i, mk := range steps {
				if i == drainAfter {
					gw.mu.RLock()
					owner := gw.routes[clSt.Session].shard.name
					gw.mu.RUnlock()
					if _, err := gw.Drain(owner); err != nil {
						t.Fatalf("drain before step %d: %v", i, err)
					}
					gw.mu.RLock()
					after := gw.routes[clSt.Session].shard.name
					gw.mu.RUnlock()
					if after == owner {
						t.Fatalf("session still routed to drained shard %s", owner)
					}
				}
				st, body, etag := applyOne(t, ts.URL, clSt.Session, mk(cur))
				if got, want := normalize(body, clSt.Session), refStates[i]; got != want {
					t.Fatalf("step %d: migrated state diverges from single-node\nsingle:   %s\nmigrated: %s", i, want, got)
				}
				if got, want := mutations(t, etag, clSt.Session), refMuts[i]; got != want {
					t.Fatalf("step %d: mutation counter %d, single-node %d", i, got, want)
				}
				cur = st
			}

			// And the final resting state agrees byte-for-byte too.
			body, _, status := getStateRaw(t, ts.URL, clSt.Session)
			if status != 200 {
				t.Fatalf("final state: status %d", status)
			}
			if got := normalize(body, clSt.Session); got != refStates[len(refStates)-1] {
				t.Fatalf("final migrated state diverges:\n%s\nvs\n%s", got, refStates[len(refStates)-1])
			}
			finals[workers] = refStates[len(refStates)-1]
		})
	}

	// Worker counts must agree with each other (bit-identical engines ⇒
	// bit-identical walks).
	if len(finals) == 3 && (finals[1] != finals[2] || finals[2] != finals[8]) {
		t.Fatalf("final states differ across worker counts:\n1: %s\n2: %s\n8: %s", finals[1], finals[2], finals[8])
	}
}

// TestMigrationAfterIngest: a session created before an ingest stays
// pinned to its engine generation even across a migration onto a
// shard that has ingested past it — the export names the engine
// version and the importer resolves it through the target dataset's
// retained history. Without the version pin, every drain after any
// ingest would fail with a group-count mismatch and strand the
// session on its shard forever.
func TestMigrationAfterIngest(t *testing.T) {
	gw, ts := testCluster(t, 2)

	st, _ := createV1(t, ts.URL)
	st1, _, etag := applyOne(t, ts.URL, st.Session, action.Action{Op: action.Explore, Group: st.Shown[0].ID})
	if got := mutations(t, etag, st.Session); got != 2 {
		t.Fatalf("mutations before ingest: %d, want 2", got)
	}
	before, _, status := getStateRaw(t, ts.URL, st.Session)
	if status != 200 {
		t.Fatalf("state before ingest: status %d", status)
	}

	// Move every shard to engine version 2.
	ir, res := postIngestAt(t, ts.URL, "default", "", clusterBatch())
	if res.StatusCode != 200 || ir.EngineVersion != 2 {
		t.Fatalf("gateway ingest: status %d, version %d", res.StatusCode, ir.EngineVersion)
	}

	// Drain the owner: the session must land on the surviving shard
	// and keep serving its version-1 state byte-identically.
	gw.mu.RLock()
	owner := gw.routes[st.Session].shard.name
	gw.mu.RUnlock()
	if _, err := gw.Drain(owner); err != nil {
		t.Fatalf("drain after ingest: %v", err)
	}
	gw.mu.RLock()
	after := gw.routes[st.Session].shard.name
	gw.mu.RUnlock()
	if after == owner {
		t.Fatalf("session still routed to drained shard %s", owner)
	}
	migrated, etag2, status := getStateRaw(t, ts.URL, st.Session)
	if status != 200 {
		t.Fatalf("state after migration: status %d", status)
	}
	if normalize(migrated, st.Session) != normalize(before, st.Session) {
		t.Fatalf("migrated state diverges from its pre-drain state\nbefore: %s\nafter:  %s",
			normalize(before, st.Session), normalize(migrated, st.Session))
	}
	if got := mutations(t, etag2, st.Session); got != 2 {
		t.Fatalf("mutation counter after migration: %d, want 2", got)
	}

	// And the ETag stream continues seamlessly on the new owner.
	_, _, etag3 := applyOne(t, ts.URL, st.Session, action.Action{Op: action.Explore, Group: st1.Shown[0].ID})
	if got := mutations(t, etag3, st.Session); got != 3 {
		t.Fatalf("mutation counter after post-migration explore: %d, want 3", got)
	}
}

// TestShardImportRejectsDivergence: an import whose trail cannot
// replay (wrong engine shape) fails closed — 409, no session left
// behind on the target.
func TestShardImportRejectsDivergence(t *testing.T) {
	// Source shard on the fixture engine, target on an engine with a
	// different group space (higher minsup ⇒ fewer groups), violating
	// the bit-identical-engines deployment contract.
	src := LocalShard("src", shardServer(t).Routes())
	different := fixtureSpec
	different.MinSup = 0.10
	dst := LocalShard("dst", specShard(t, different, fixtureWorkers, serve.DefaultConfig()).Routes())

	gw, err2 := NewGatewayConfig(GatewayConfig{}, src)
	if err2 != nil {
		t.Fatal(err2)
	}
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(gw.Routes())
	defer ts.Close()
	st, _ := createV1(t, ts.URL)
	_, _, _ = applyOne(t, ts.URL, st.Session, action.Action{Op: action.Explore, Group: st.Shown[0].ID})

	if err := gw.migrate(st.Session, src, dst); err == nil {
		t.Fatal("migrating onto a mismatched engine should fail")
	}
	// The source still owns the live session; the target holds nothing.
	if _, _, status := getStateRaw(t, ts.URL, st.Session); status != 200 {
		t.Fatalf("source lost the session after failed migration: %d", status)
	}
	list, err := dst.sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("target kept a half-imported session: %v", list)
	}
}

// BenchmarkDrain times replay-based migration: a drain of one shard of
// a 2-shard cluster holding 40 sessions with 5-explore trails (the
// deterministic optimizer, detGreedy, on both shards). Only
// gw.Drain is timed; the cluster and its sessions are rebuilt with
// the timer stopped each iteration. Reports ms/session moved.
func BenchmarkDrain(b *testing.B) {
	const population, trailLen = 40, 5
	moved := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gw, ts := testCluster(b, 2)
		for j := 0; j < population; j++ {
			st, _ := createV1(b, ts.URL)
			for k := 0; k < trailLen; k++ {
				st, _, _ = applyOne(b, ts.URL, st.Session, action.Action{Op: action.Explore, Group: st.Shown[0].ID})
			}
		}
		victim := gw.Shards()[0]
		want := sessionsOn(b, gw, victim)
		b.StartTimer()
		n, err := gw.Drain(victim)
		if err != nil {
			b.Fatal(err)
		}
		if n != want {
			b.Fatalf("drain moved %d sessions, %s held %d", n, victim, want)
		}
		moved += n
	}
	if moved > 0 {
		b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/float64(moved), "ms/session")
	}
}
