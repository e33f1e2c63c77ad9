package loadsim

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"vexus/internal/action"
	"vexus/internal/cluster"
	"vexus/internal/rng"
)

// user is one analyst: their derived rng stream, Zipf-rank arrival
// rate, and real session state.
type user struct {
	idx  int
	r    *rng.RNG
	rate float64

	alive         bool
	pendingCreate bool
	paused        bool // owner partitioned: the analyst backs off until heal
	sid           string
	owner         string
	gen           int
	mut           uint64

	// View state, parsed from ?full=1 responses.
	shown   []int
	histLen int
	sse     *sseStream
}

// turn is one user's slot for the current tick, written exclusively by
// that user's phase-A worker and consumed by sequential phase B.
type turn struct {
	op int

	// HTTP exchange result.
	did         bool
	status      int
	batchLen    int
	respSession string
	etagSID     string
	etagMut     uint64
	shown       []int
	histLen     int
}

// The behavior mix: explore dominates, with backtracking and
// focus+brush dips (the brush rides in the same batch as its focus,
// since a brush is only valid against an open focus view).
const (
	opExplore = iota
	opBacktrack
	opFocusBrush
)

var opWeights = []float64{0.55, 0.15, 0.30}

// liveState is the slice of the serve stateDTO the driver reads.
type liveState struct {
	Session string `json:"session"`
	Shown   []struct {
		ID int `json:"id"`
	} `json:"shown"`
	History []struct {
		Step int `json:"step"`
	} `json:"history"`
}

// liveAction builds and POSTs one action batch for a due user,
// recording the exchange in the turn slot. Runs on a phase-A worker:
// it mutates only u.r (operand draws) and the slot.
func (h *harness) liveAction(u *user, tn *turn) {
	op := tn.op
	if op != opBacktrack && len(u.shown) == 0 {
		op = opBacktrack
	}
	var acts []action.Action
	switch op {
	case opExplore:
		acts = []action.Action{{Op: action.Explore, Group: u.shown[u.r.Intn(len(u.shown))]}}
	case opBacktrack:
		step := 0
		if u.histLen > 1 {
			step = u.r.Intn(u.histLen)
		}
		acts = []action.Action{{Op: action.Backtrack, Step: step}}
	case opFocusBrush:
		g := u.shown[u.r.Intn(len(u.shown))]
		acts = []action.Action{
			{Op: action.Focus, Group: g},
			{Op: action.Brush, Attr: "gender"},
		}
	}
	tn.op = op
	tn.batchLen = len(acts)
	body, err := json.Marshal(acts)
	if err != nil {
		return
	}
	res := h.gwc.do(http.MethodPost, "/api/v1/sessions/"+u.sid+"/actions?full=1", body, "application/json")
	tn.did = true
	tn.status = res.StatusCode
	if res.StatusCode == http.StatusOK {
		var st liveState
		if err := json.NewDecoder(res.Body).Decode(&st); err == nil {
			tn.respSession = st.Session
			tn.shown = shownIDs(st)
			tn.histLen = len(st.History)
		}
		tn.etagSID, tn.etagMut = parseETag(res.Header.Get("ETag"))
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
}

func shownIDs(st liveState) []int {
	ids := make([]int, len(st.Shown))
	for i, g := range st.Shown {
		ids[i] = g.ID
	}
	return ids
}

// parseETag splits the `"<sid>.<mutations>"` validator.
func parseETag(etag string) (string, uint64) {
	etag = strings.Trim(strings.TrimPrefix(etag, "W/"), `"`)
	dot := strings.LastIndexByte(etag, '.')
	if dot < 0 {
		return etag, 0
	}
	m, err := strconv.ParseUint(etag[dot+1:], 10, 64)
	if err != nil {
		return etag, 0
	}
	return etag[:dot], m
}

// applyLiveResult folds an exchange into the user's state and the
// fail-closed counters. Sequential (phase B).
func (h *harness) applyLiveResult(u *user, tn *turn) {
	switch {
	case tn.status == http.StatusOK:
		if tn.respSession != u.sid || tn.etagSID != u.sid {
			h.misrouted++
			return
		}
		if tn.etagMut != u.mut+uint64(tn.batchLen) {
			h.etagBreaks++
		}
		u.mut = tn.etagMut
		u.shown = tn.shown
		u.histLen = tn.histLen
	case tn.status == http.StatusNotFound:
		// The shard no longer holds the session. If its owner is up and
		// routable, the session itself was torn down (dataset eviction);
		// otherwise the route re-homed off a dead member.
		cause := causeFailure
		if h.ring[u.owner] && h.shardAlive(u.owner) {
			cause = causeEviction
		}
		h.loseUser(u, cause)
	case tn.status == http.StatusServiceUnavailable || tn.status == http.StatusBadGateway:
		h.unavailableLive++ // fail closed: retry against the same sid later
	case tn.status == http.StatusBadRequest:
		h.badBatches++
	default:
		h.otherErrors++
	}
}

// createUser opens a session for an analyst without one through the
// real gateway create (harness-minted sid, so rendezvous placement is
// reproducible). Sequential (phase B and chaos ops only), which is
// what makes the single mintNext slot safe.
func (h *harness) createUser(u *user) {
	u.gen++
	sid := fmt.Sprintf("u%06d.g%d", u.idx, u.gen)
	h.mintNext = sid
	res := h.gwc.do(http.MethodPost, "/api/v1/sessions", nil, "")
	defer res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		io.Copy(io.Discard, res.Body)
		h.createRetries++
		return
	}
	var st liveState
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil || st.Session != sid {
		h.misrouted++
		return
	}
	_, m := parseETag(res.Header.Get("ETag"))
	u.sid = sid
	u.owner = cluster.Owner(h.ringLst, sid)
	u.alive, u.pendingCreate = true, false
	u.mut = m
	u.shown = shownIDs(st)
	u.histLen = len(st.History)
	h.liveCreates++
	if u.idx%sseEvery == 0 {
		h.subscribe(u)
	}
}

// finalAudit closes the run with the fail-closed sweep: every
// analyst's surviving session must be exactly where the harness thinks
// it is (200 under the exact ETag), and every sid ever lost must stay
// dead — a 200 there would be a fail-open ghost.
func (h *harness) finalAudit() {
	h.quiesceStreams()
	for i := range h.users {
		u := &h.users[i]
		if !u.alive || u.paused || u.sid == "" {
			continue
		}
		res := h.gwc.do(http.MethodGet, "/api/v1/sessions/"+u.sid+"/state", nil, "")
		sidHdr, m := parseETag(res.Header.Get("ETag"))
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if !h.shardAlive(u.owner) {
			// The analyst's owner died and they never acted again, so the
			// harness never observed the loss. The session is gone; the
			// fail-closed expectation is anything but a 200.
			if res.StatusCode == http.StatusOK {
				h.failOpenSessions++
			} else {
				h.auditedOK++
				h.loseUser(u, causeFailure)
			}
			continue
		}
		if res.StatusCode == http.StatusOK && sidHdr == u.sid && m == u.mut {
			h.auditedOK++
		} else {
			h.auditFailures++
		}
	}
	for _, sid := range h.deadSids {
		res := h.gwc.do(http.MethodGet, "/api/v1/sessions/"+sid+"/state", nil, "")
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode == http.StatusOK {
			h.failOpenSessions++
		} else {
			h.auditedOK++
		}
	}
	for _, st := range h.streams {
		st.stop()
	}
}
