package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vexus/internal/action"
	"vexus/internal/serve"
)

// ---------------------------------------------------------------------------
// Minimal SSE client (the serve package keeps its own; a gateway test
// must consume the stream through real HTTP like any external client).

type sseEvent struct {
	id   string
	name string
	data string
}

type sseStream struct {
	res    *http.Response
	events chan sseEvent
}

func openStream(t testing.TB, url, lastEventID string) *sseStream {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	res, err := http.DefaultClient.Do(req) // no timeout: streams outlive any budget
	if err != nil {
		t.Fatal(err)
	}
	s := &sseStream{res: res, events: make(chan sseEvent, 64)}
	t.Cleanup(func() { res.Body.Close() })
	if res.StatusCode != http.StatusOK {
		close(s.events)
		return s
	}
	go func() {
		defer close(s.events)
		sc := bufio.NewScanner(res.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev.name != "" {
					s.events <- ev
				}
				ev = sseEvent{}
			case strings.HasPrefix(line, ":"):
			case strings.HasPrefix(line, "id: "):
				ev.id = line[len("id: "):]
			case strings.HasPrefix(line, "event: "):
				ev.name = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				ev.data = line[len("data: "):]
			}
		}
	}()
	return s
}

func (s *sseStream) next(t testing.TB) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-s.events:
		if !ok {
			t.Fatal("stream ended before the expected event")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for an SSE event")
	}
	panic("unreachable")
}

func (s *sseStream) end(t testing.TB) {
	t.Helper()
	select {
	case ev, ok := <-s.events:
		if ok {
			t.Fatalf("expected stream end, got %q id=%s", ev.name, ev.id)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for stream end")
	}
}

// TestStreamResumeAcrossMigration extends the migration equivalence
// contract to the diff stream: a client streaming through the gateway
// is torn down by a mid-trail drain with `event: closed` reason
// "migrated", the trail continues on the new owner while the client is
// away, and a Last-Event-ID reconnect delivers exactly the missed
// diffs — no duplicates, no gaps, no resync — with payloads
// byte-identical to a single-node run's diff stream. Repeats at
// workers 1, 2 and 8 (bit-identical engines ⇒ bit-identical streams).
// Run with -race (CI does).
func TestStreamResumeAcrossMigration(t *testing.T) {
	steps := []func(cur stateLite) action.Action{
		func(cur stateLite) action.Action {
			return action.Action{Op: action.Explore, Group: cur.Shown[0].ID}
		},
		func(cur stateLite) action.Action {
			return action.Action{Op: action.BookmarkGroup, Group: cur.Shown[1].ID}
		},
		func(cur stateLite) action.Action {
			return action.Action{Op: action.Explore, Group: cur.Shown[2].ID}
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
	}
	const drainAfter = 3 // steps the client watches live on the old owner

	finals := map[int]string{}
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Reference: the full diff stream of the same trail on one
			// node. Diff payloads carry no session id, so they compare
			// byte-for-byte across runs.
			refDiffs := runReferenceStream(t, workers, steps)

			gw, ts := workersCluster(t, workers, 3)
			st, _ := createV1(t, ts.URL)
			sid := st.Session

			stream := openStream(t, ts.URL+"/api/v1/sessions/"+sid+"/events", "")
			if ev := stream.next(t); ev.name != "resync" || ev.id != "1" {
				t.Fatalf("first event %q id=%s, want resync id=1", ev.name, ev.id)
			}

			cur := st
			for i := 0; i < drainAfter; i++ {
				var etag string
				cur, _, etag = applyOne(t, ts.URL, sid, steps[i](cur))
				ev := stream.next(t)
				wantID := fmt.Sprint(mutations(t, etag, sid))
				if ev.name != "diff" || ev.id != wantID {
					t.Fatalf("step %d: event %q id=%s, want diff id=%s", i, ev.name, ev.id, wantID)
				}
				if ev.data != refDiffs[ev.id] {
					t.Fatalf("step %d: diff diverges from single-node\nsingle:  %s\ncluster: %s", i, refDiffs[ev.id], ev.data)
				}
			}

			// Drain the owner mid-trail. The attached stream must get a
			// terminal closed frame telling it to come back, then EOF —
			// and crucially the drain must not block on the open stream
			// (the gateway releases the route latch after attach).
			gw.mu.RLock()
			owner := gw.routes[sid].shard.name
			gw.mu.RUnlock()
			if _, err := gw.Drain(owner); err != nil {
				t.Fatalf("drain with an attached stream: %v", err)
			}
			ev := stream.next(t)
			if ev.name != "closed" {
				t.Fatalf("after drain: event %q, want closed", ev.name)
			}
			var closed struct {
				Reason string `json:"reason"`
			}
			if err := json.Unmarshal([]byte(ev.data), &closed); err != nil || closed.Reason != "migrated" {
				t.Fatalf("closed reason %q (err %v), want migrated", closed.Reason, err)
			}
			stream.end(t)

			// The trail continues on the new owner while the client is
			// away.
			lastSeen := uint64(drainAfter + 1)
			for i := drainAfter; i < len(steps); i++ {
				cur, _, _ = applyOne(t, ts.URL, sid, steps[i](cur))
			}

			// Reconnect with the resume cursor: exactly the missed diffs,
			// in order, byte-identical to the single-node stream — served
			// from the replayed ring and the new owner's live tail.
			resumed := openStream(t, ts.URL+"/api/v1/sessions/"+sid+"/events", fmt.Sprint(lastSeen))
			for want := lastSeen + 1; want <= uint64(len(steps)+1); want++ {
				ev := resumed.next(t)
				if ev.name != "diff" || ev.id != fmt.Sprint(want) {
					t.Fatalf("resume: event %q id=%s, want diff id=%d (no dupes, no gaps, no resync)", ev.name, ev.id, want)
				}
				if ev.data != refDiffs[ev.id] {
					t.Fatalf("resume id=%s: diff diverges from single-node\nsingle:  %s\ncluster: %s", ev.id, refDiffs[ev.id], ev.data)
				}
			}
			// And the resumed stream is live: one more action flows.
			_, _, etag := applyOne(t, ts.URL, sid, action.Action{Op: action.Explore, Group: cur.Shown[0].ID})
			ev = resumed.next(t)
			if ev.name != "diff" || ev.id != fmt.Sprint(mutations(t, etag, sid)) {
				t.Fatalf("post-resume live event %q id=%s, want diff id=%d", ev.name, ev.id, mutations(t, etag, sid))
			}

			body, _, status := getStateRaw(t, ts.URL, sid)
			if status != http.StatusOK {
				t.Fatalf("final state: status %d", status)
			}
			finals[workers] = normalize(body, sid)
		})
	}
	if len(finals) == 3 && (finals[1] != finals[2] || finals[2] != finals[8]) {
		t.Fatalf("final states differ across worker counts:\n1: %s\n2: %s\n8: %s", finals[1], finals[2], finals[8])
	}
}

// runReferenceStream drives the trail on a single node with a stream
// attached and returns the diff payload per event id.
func runReferenceStream(t testing.TB, workers int, steps []func(stateLite) action.Action) map[string]string {
	t.Helper()
	single := httptest.NewServer(specShard(t, fixtureSpec, workers, serve.DefaultConfig()).Routes())
	defer single.Close()
	st, _ := createV1(t, single.URL)
	stream := openStream(t, single.URL+"/api/v1/sessions/"+st.Session+"/events", "")
	// Hang up before the deferred server Close: Close waits for open
	// connections, and the stream would otherwise hold one forever.
	defer stream.res.Body.Close()
	if ev := stream.next(t); ev.name != "resync" {
		t.Fatalf("reference: first event %q, want resync", ev.name)
	}
	diffs := make(map[string]string, len(steps))
	cur := st
	for i, mk := range steps {
		cur, _, _ = applyOne(t, single.URL, st.Session, mk(cur))
		ev := stream.next(t)
		if ev.name != "diff" {
			t.Fatalf("reference step %d: event %q, want diff", i, ev.name)
		}
		diffs[ev.id] = ev.data
	}
	return diffs
}
