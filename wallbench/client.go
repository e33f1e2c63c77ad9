package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/serve"
	"vexus/internal/telemetry"
)

// checker counts attempted operations and the ones that failed or
// broke an output check. Any failure marks the run incorrect.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string
}

func (c *checker) attempt() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.first) < 5 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// state is the slice of the server's state DTO the analyst reads to
// choose its next action.
type state struct {
	Session string `json:"session"`
	Shown   []struct {
		ID   int `json:"id"`
		Size int `json:"size"`
	} `json:"shown"`
	History []struct {
		Step int `json:"step"`
	} `json:"history"`
	Focus *struct {
		Histograms []struct {
			Attr   string   `json:"attr"`
			Labels []string `json:"labels"`
			Counts []int    `json:"counts"`
		} `json:"histograms"`
	} `json:"focus"`
}

// batchReply is the diff-mode response of an action batch.
type batchReply struct {
	Results []action.Result `json:"results"`
}

// client talks to the gateway. Requests that carry a trace id become
// client spans when tracing is on.
type client struct {
	base  string
	hc    *http.Client
	check *checker
	tr    *tracer
}

func newClient(base string, check *checker, tr *tracer) *client {
	// One keep-alive connection per client: the analyst is closed-loop.
	tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tp, Timeout: 120 * time.Second}, check: check, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed request.
type reply struct {
	status  int
	etag    string
	body    []byte
	sent    time.Time
	arrived time.Time
	trace   string
}

func (r reply) elapsed() time.Duration { return r.arrived.Sub(r.sent) }

// do sends one request; op names the client span ("" = not traced).
func (c *client) do(method, url string, body []byte, op string) (reply, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var r reply
	if op != "" {
		r.trace = telemetry.NewTraceID()
		req.Header.Set(telemetry.TraceHeader, r.trace)
	}
	r.sent = time.Now()
	res, err := c.hc.Do(req)
	if err != nil {
		return r, err
	}
	r.body, err = io.ReadAll(res.Body)
	res.Body.Close()
	r.arrived = time.Now()
	r.status = res.StatusCode
	r.etag = res.Header.Get("ETag")
	if op != "" {
		c.tr.add(spanClient+"."+op, r.trace, 0, r.sent, r.arrived)
	}
	return r, err
}

func etagOf(sid string, mutations uint64) string { return fmt.Sprintf(`"%s.%d"`, sid, mutations) }

// create opens a session on dataset through the gateway.
func (c *client) create(dataset string) (state, reply, error) {
	c.check.attempt()
	r, err := c.do(http.MethodPost, c.base+"/api/v1/sessions?dataset="+dataset, nil, "create")
	if err != nil {
		return state{}, r, err
	}
	if r.status != http.StatusCreated {
		return state{}, r, fmt.Errorf("create: status %d: %s", r.status, r.body)
	}
	var st state
	if err := json.Unmarshal(r.body, &st); err != nil {
		return st, r, err
	}
	if want := etagOf(st.Session, 1); r.etag != want {
		c.check.fail("create: ETag %s, want %s", r.etag, want)
	}
	return st, r, nil
}

// batch applies acts to sid, whose counter stands at mutations, and
// checks the response validator. full asks for the state snapshot.
func (c *client) batch(sid string, mutations uint64, acts []action.Action, full bool, op string) (reply, error) {
	c.check.attempt()
	raw, err := json.Marshal(acts)
	if err != nil {
		return reply{}, err
	}
	url := c.base + "/api/v1/sessions/" + sid + "/actions"
	if full {
		url += "?full=1"
	}
	r, err := c.do(http.MethodPost, url, raw, op)
	if err != nil {
		return r, err
	}
	if r.status != http.StatusOK {
		return r, fmt.Errorf("%s batch: status %d: %s", op, r.status, r.body)
	}
	if want := etagOf(sid, mutations+uint64(len(acts))); r.etag != want {
		c.check.fail("%s batch: ETag %s, want %s", op, r.etag, want)
	}
	return r, nil
}

func (c *client) get(url string) (reply, error) {
	r, err := c.do(http.MethodGet, url, nil, "")
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", url, r.status, r.body)
	}
	return r, err
}

func (c *client) delete(url string) error {
	r, err := c.do(http.MethodDelete, url, nil, "")
	if err == nil && r.status != http.StatusNoContent && r.status != http.StatusOK {
		err = fmt.Errorf("DELETE %s: status %d", url, r.status)
	}
	return err
}

// ingest posts one batch through the gateway and returns the engine
// version both shards converged on.
func (c *client) ingest(dataset string, b core.IngestBatch) (reply, uint64, error) {
	c.check.attempt()
	raw, err := json.Marshal(b)
	if err != nil {
		return reply{}, 0, err
	}
	r, err := c.do(http.MethodPost, c.base+"/api/v1/datasets/"+dataset+"/ingest", raw, "ingest")
	if err != nil {
		return r, 0, err
	}
	if r.status != http.StatusOK {
		return r, 0, fmt.Errorf("ingest: status %d: %s", r.status, r.body)
	}
	var res serve.IngestResult
	if err := json.Unmarshal(r.body, &res); err != nil {
		return r, 0, err
	}
	return r, res.EngineVersion, nil
}

// verifyReplay checks that the session's exported trail, replayed on
// the peer shard under the same id, serves byte-for-byte the state the
// gateway serves; the peer copy is deleted afterwards. It returns the
// exported trail, nil when the check failed.
func (c *client) verifyReplay(sid string, shardURLs []string) []action.Action {
	c.check.attempt()
	trail, err := c.replayMatches(sid, shardURLs)
	if err != nil {
		c.check.fail("replay %s: %v", sid, err)
		return nil
	}
	return trail
}

func (c *client) replayMatches(sid string, shardURLs []string) ([]action.Action, error) {
	want, err := c.get(c.base + "/api/v1/sessions/" + sid + "/state")
	if err != nil {
		return nil, err
	}
	owner := -1
	var export reply
	for i, u := range shardURLs {
		r, err := c.do(http.MethodGet, u+"/internal/cluster/sessions/"+sid+"/export", nil, "")
		if err == nil && r.status == http.StatusOK {
			owner, export = i, r
			break
		}
	}
	if owner < 0 {
		return nil, fmt.Errorf("no shard exports the session")
	}
	var doc serve.SessionExport
	var saved struct {
		Actions []action.Action `json:"actions"`
	}
	if err := json.Unmarshal(export.body, &doc); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(doc.Trail, &saved); err != nil {
		return nil, err
	}
	peer := shardURLs[(owner+1)%len(shardURLs)]
	// The gateway fans an ingest out to the shards one after another,
	// so a session created on the first shard's new engine can reach
	// the peer before the peer has built that version; the peer refuses
	// it with 409 until then. Retry until the fan-out has passed.
	var r reply
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if r, err = c.do(http.MethodPost, peer+"/internal/cluster/sessions/"+sid+"/import", export.body, ""); err != nil {
			return nil, err
		}
		if r.status != http.StatusConflict || time.Now().After(deadline) {
			break
		}
	}
	if r.status != http.StatusCreated {
		return nil, fmt.Errorf("import on peer: status %d: %s", r.status, r.body)
	}
	got, err := c.get(peer + "/api/v1/sessions/" + sid + "/state")
	if err != nil {
		return nil, err
	}
	if err := c.delete(peer + "/api/v1/sessions/" + sid); err != nil {
		return nil, err
	}
	if !bytes.Equal(got.body, want.body) {
		return nil, fmt.Errorf("replayed state differs from the gateway's (%d vs %d bytes)", len(got.body), len(want.body))
	}
	if got.etag != want.etag {
		return nil, fmt.Errorf("replayed ETag %s, gateway %s", got.etag, want.etag)
	}
	return saved.Actions, nil
}

// sseEvent is one frame of a session's event stream.
type sseEvent struct {
	id    uint64
	hasID bool
	kind  string
	at    time.Time
}

// eventStream follows one session's SSE stream through the gateway.
type eventStream struct {
	cancel  context.CancelFunc
	events  chan sseEvent
	last    uint64 // highest diff id consumed
	resyncs int
}

// openStream subscribes to sid's events after the creation mutation,
// so the stream carries exactly the diffs of the actions that follow.
// Like a browser's EventSource it does not wait for the response
// headers: the gateway forwards them only with the first event, and a
// diff applied before the subscription lands is replayed from the
// session's resume ring.
func openStream(hc *http.Client, base, sid string) (*eventStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/sessions/"+sid+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Last-Event-ID", "1")
	// Sized for a whole trail; the analyst drains it after every batch.
	s := &eventStream{cancel: cancel, events: make(chan sseEvent, 1024), last: 1}
	go s.read(hc, req)
	return s, nil
}

func (s *eventStream) read(hc *http.Client, req *http.Request) {
	defer close(s.events)
	res, err := hc.Do(req)
	if err != nil {
		return
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		s.events <- sseEvent{kind: fmt.Sprintf("status %d", res.StatusCode)}
		return
	}
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.kind != "" || ev.hasID {
				ev.at = time.Now()
				s.events <- ev
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			ev.id, ev.hasID = id, err == nil
		case strings.HasPrefix(line, "event: "):
			ev.kind = line[len("event: "):]
		}
	}
}

// await consumes events until diff id arrives, checking that diff ids
// run without a gap and that no resync happens. It returns the arrival
// time of id.
func (s *eventStream) await(id uint64, check *checker) (time.Time, int, error) {
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	n := 0
	for {
		select {
		case ev, ok := <-s.events:
			if !ok {
				return time.Time{}, n, fmt.Errorf("stream ended before event %d", id)
			}
			n++
			switch ev.kind {
			case "diff":
				if !ev.hasID || ev.id != s.last+1 {
					check.fail("SSE: diff id %d after %d (gap or reorder)", ev.id, s.last)
				}
				s.last = ev.id
				if ev.id >= id {
					return ev.at, n, nil
				}
			case "notice":
				if ev.hasID {
					check.fail("SSE: notice carries id %d", ev.id)
				}
			case "resync":
				// A resync carries the full state at the current counter.
				s.resyncs++
				check.fail("SSE: resync at id %d", ev.id)
				s.last = ev.id
				if ev.id >= id {
					return ev.at, n, nil
				}
			default:
				check.fail("SSE: unexpected %q event (id %d)", ev.kind, ev.id)
				if ev.kind == "closed" {
					return time.Time{}, n, fmt.Errorf("stream closed")
				}
			}
		case <-timeout.C:
			return time.Time{}, n, fmt.Errorf("timed out waiting for event %d", id)
		}
	}
}

func (s *eventStream) close() {
	s.cancel()
	for range s.events {
	}
}
