package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/rng"
	"vexus/internal/serve"
)

// Dataset names in every shard catalog: the analyst explores the
// workload's corpus, "main", and the ingest probe writes to the small
// "live" corpus beside it.
const (
	mainName = "main"
	liveName = "live"
)

// dataSeed generates every corpus and the pool of analyst trails.
// Both are fixed; --seed drives the traffic: the order the pool is
// played in, and the ingest batches. The work an operation costs
// depends strongly on which groups it touches: a seed-varied corpus
// changes the group count (6,466 to 6,840 groups at 3,000 authors over
// two seeds), and seed-varied trails focus on a handful of groups of
// 650 to 1,000 members often enough to set focus_p90_ms in one run and
// not in the next. Either would make the run-to-run spread measure the
// inputs instead of the code.
const dataSeed = 42

// workload is one traffic mix against the cluster.
type workload struct {
	// specs is each shard's catalog: mainName and liveName.
	specs map[string]serve.DatasetSpec
	// trail generates one analyst session's steps.
	trail func(r *rng.RNG) []step
}

// sizes are the scale knobs; the package tests run toy sizes.
type sizes struct {
	browseAuthors, focusUsers, liveAuthors int
	browseMinSup, focusMinSup, liveMinSup  float64
	setups, restarts, warmTrails, probe    int
	// pool is the number of distinct analyst sessions; a run plays the
	// whole pool in every pass, so every pass does the same work.
	pool         int
	batchAuthors int
}

var fullSizes = sizes{
	browseAuthors: 3000, browseMinSup: 0.02,
	focusUsers: 3000, focusMinSup: 0.01,
	liveAuthors: 500, liveMinSup: 0.08,
	setups: 3, restarts: 12, warmTrails: 4, probe: 24, pool: 12,
	batchAuthors: 3,
}

var toySizes = sizes{
	browseAuthors: 300, browseMinSup: 0.05,
	focusUsers: 3000, focusMinSup: 0.01,
	liveAuthors: 200, liveMinSup: 0.1,
	setups: 1, restarts: 2, warmTrails: 2, probe: 2, pool: 4,
	batchAuthors: 3,
}

func workloads(sz sizes) map[string]workload {
	live := serve.DatasetSpec{Dataset: "dbauthors", N: sz.liveAuthors, Seed: dataSeed, MinSup: sz.liveMinSup}
	return map[string]workload{
		"browse": {
			specs: map[string]serve.DatasetSpec{
				mainName: {Dataset: "dbauthors", N: sz.browseAuthors, Seed: dataSeed, MinSup: sz.browseMinSup},
				liveName: live,
			},
			trail: browseTrail,
		},
		"focus": {
			specs: map[string]serve.DatasetSpec{
				mainName: {Dataset: "bookcrossing", N: sz.focusUsers, Seed: dataSeed, MinSup: sz.focusMinSup},
				liveName: live,
			},
			trail: focusTrail,
		},
	}
}

// step is one analyst intent, resolved against the state the session
// shows when it is taken: pick selects among the shown groups, history
// steps, or histogram attributes, pick2 among an attribute's values.
type step struct {
	op          action.Kind
	pick, pick2 int
}

// browseTrail is ten explore/backtrack clicks with two focus+brush
// looks and a bookmark mixed in. Every trail is a fresh session of
// fixed length, so history and feedback never grow across a run.
func browseTrail(r *rng.RNG) []step {
	var steps []step
	for i := 0; i < 10; i++ {
		op := action.Explore
		if i > 1 && r.Float64() < 0.2 {
			op = action.Backtrack
		}
		steps = append(steps, step{op: op, pick: r.Intn(1 << 20)})
	}
	for n := 0; n < 2; n++ {
		at := 1 + r.Intn(len(steps))
		look := []step{{op: action.Focus, pick: r.Intn(1 << 20)},
			{op: action.Brush, pick: r.Intn(1 << 20), pick2: r.Intn(1 << 20)}}
		steps = append(steps[:at], append(look, steps[at:]...)...)
	}
	at := 1 + r.Intn(len(steps))
	steps = append(steps[:at], append([]step{{op: action.BookmarkGroup, pick: r.Intn(1 << 20)}}, steps[at:]...)...)
	return steps
}

// focusTrail is four rounds of explore, focus on a shown group, and
// two or three brushes on the open STATS view.
func focusTrail(r *rng.RNG) []step {
	var steps []step
	for round := 0; round < 4; round++ {
		steps = append(steps, step{op: action.Explore, pick: r.Intn(1 << 20)},
			step{op: action.Focus, pick: r.Intn(1 << 20)})
		for b, nb := 0, 2+r.Intn(2); b < nb; b++ {
			steps = append(steps, step{op: action.Brush, pick: r.Intn(1 << 20), pick2: r.Intn(1 << 20)})
		}
	}
	return steps
}

// resolve turns an intent into an action on the current state. It
// returns false when the intent does not apply (nothing to brush, no
// step to go back to).
func resolve(s step, st *state) (action.Action, bool) {
	switch s.op {
	case action.Explore, action.Focus, action.BookmarkGroup:
		if len(st.Shown) == 0 {
			return action.Action{}, false
		}
		return action.Action{Op: s.op, Group: st.Shown[s.pick%len(st.Shown)].ID}, true
	case action.Backtrack:
		if len(st.History) < 2 {
			return action.Action{}, false
		}
		return action.Action{Op: action.Backtrack, Step: s.pick % (len(st.History) - 1)}, true
	case action.Brush:
		if st.Focus == nil || len(st.Focus.Histograms) == 0 {
			return action.Action{}, false
		}
		h := st.Focus.Histograms[s.pick%len(st.Focus.Histograms)]
		var present []string
		for i, c := range h.Counts {
			if c > 0 && i < len(h.Labels) {
				present = append(present, h.Labels[i])
			}
		}
		if len(present) == 0 {
			return action.Action{}, false
		}
		return action.Action{Op: action.Brush, Attr: h.Attr, Values: []string{present[s.pick2%len(present)]}}, true
	}
	return action.Action{}, false
}

// recorder holds what the analyst observed over one pass (or the
// warm-up).
type recorder struct {
	lat     map[action.Kind]samples // client-observed batch latency by op
	push    samples                 // batch sent → its diff on the stream
	lag     samples                 // response arrived → diff arrived (may be negative)
	events  int
	resyncs int
	respKB  []float64         // explore ?full=1 response sizes
	traces  map[string]string // client trace id → op
	objSum  float64
	objN    int
	warmLog [][]action.Action // exported trails of the warm-up sessions
}

// add merges o's samples into r.
func (r *recorder) add(o *recorder) {
	for op, l := range o.lat {
		r.lat[op] = append(r.lat[op], l...)
	}
	r.push = append(r.push, o.push...)
	r.lag = append(r.lag, o.lag...)
	r.events += o.events
	r.resyncs += o.resyncs
	r.respKB = append(r.respKB, o.respKB...)
	for k, v := range o.traces {
		r.traces[k] = v
	}
}

func newRecorder() *recorder {
	return &recorder{lat: map[action.Kind]samples{}, traces: map[string]string{}}
}

// analyst is one closed-loop explorer: it waits for each response and
// for the matching diff on its session's event stream before acting
// again.
type analyst struct {
	c        *client
	streamHC *http.Client
	shards   []string
	dataset  string
	k        int
}

// runTrail plays one fresh session through the gateway. Timed trails
// record latencies into rec; warm-up trails (timed=false) post in diff
// mode to collect the optimizer's objective, and keep their exported
// trail for the layer pass.
func (a *analyst) runTrail(steps []step, timed bool, rec *recorder) error {
	st, cr, err := a.c.create(a.dataset)
	if err != nil {
		return err
	}
	sid := st.Session
	if timed {
		rec.traces[cr.trace] = "create"
	}
	stream, err := openStream(a.streamHC, a.c.base, sid)
	if err != nil {
		return err
	}
	defer func() {
		rec.resyncs += stream.resyncs
		stream.close()
	}()
	mutations := uint64(1)
	for _, s := range steps {
		act, ok := resolve(s, &st)
		if !ok {
			act, _ = resolve(step{op: action.Explore, pick: s.pick}, &st)
		}
		op := string(act.Op)
		if act.Op == action.BookmarkGroup {
			op = "bookmark"
		}
		r, err := a.c.batch(sid, mutations, []action.Action{act}, timed, op)
		if err != nil {
			return err
		}
		mutations++
		arrived, n, err := stream.await(mutations, a.c.check)
		if err != nil {
			return err
		}
		if timed {
			rec.lat[act.Op] = append(rec.lat[act.Op], r.elapsed())
			rec.push = append(rec.push, arrived.Sub(r.sent))
			rec.lag = append(rec.lag, arrived.Sub(r.arrived))
			rec.events += n
			rec.traces[r.trace] = string(act.Op)
			if act.Op == action.Explore {
				rec.respKB = append(rec.respKB, float64(len(r.body))/1024)
			}
			st = state{}
			if err := json.Unmarshal(r.body, &st); err != nil {
				return err
			}
		} else {
			var br batchReply
			if err := json.Unmarshal(r.body, &br); err != nil {
				return err
			}
			if len(br.Results) == 1 && br.Results[0].Metrics != nil {
				rec.objSum += br.Results[0].Metrics.Objective
				rec.objN++
			}
			g, err := a.c.get(a.c.base + "/api/v1/sessions/" + sid + "/state")
			if err != nil {
				return err
			}
			st = state{}
			if err := json.Unmarshal(g.body, &st); err != nil {
				return err
			}
		}
		if act.Op == action.Explore && len(st.Shown) != a.k {
			a.c.check.fail("explore on %s returned %d groups, want %d", sid, len(st.Shown), a.k)
		}
	}
	trail := a.c.verifyReplay(sid, a.shards)
	if !timed && trail != nil {
		rec.warmLog = append(rec.warmLog, trail)
	}
	return a.c.delete(a.c.base + "/api/v1/sessions/" + sid)
}

// ingestBatch synthesizes one valid DB-AUTHORS batch: n new authors
// with one to three venue actions each. Ids continue from *next so
// batches never collide.
func ingestBatch(r *rng.RNG, next *int, n int) core.IngestBatch {
	genders := []string{"female", "male"}
	seniorities := []string{"junior", "senior", "very senior"}
	var b core.IngestBatch
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("live%06d", *next)
		*next++
		b.Users = append(b.Users, dataset.NewUser{
			ID: id,
			Demo: map[string]string{
				"gender":    genders[r.Intn(len(genders))],
				"seniority": seniorities[r.Intn(len(seniorities))],
				"country":   datagen.Countries[r.Intn(len(datagen.Countries))],
				"topic":     datagen.Topics[r.Intn(len(datagen.Topics))],
			},
			Numeric: map[string]float64{"pubrate": float64(1 + r.Intn(100))},
		})
		for k, nk := 0, 1+r.Intn(3); k < nk; k++ {
			b.Actions = append(b.Actions, dataset.NewAction{
				User: id, Item: datagen.Venues[r.Intn(len(datagen.Venues))], Value: 1, Time: 2018,
			})
		}
	}
	return b
}

// newBatchRNG is the stream ingest batches are drawn from.
func newBatchRNG(seed uint64) *rng.RNG { return rng.New(seed).Split(1 << 40) }

// writer posts the ingest probe's batches through the gateway.
type writer struct {
	c       *client
	r       *rng.RNG
	next    int
	n       int
	version uint64 // engine version of the last acknowledged batch
	lat     samples
	traces  []string
}

func (w *writer) post(dataset string) error {
	r, v, err := w.c.ingest(dataset, ingestBatch(w.r, &w.next, w.n))
	if err != nil {
		return err
	}
	if v != w.version+1 {
		w.c.check.fail("ingest acknowledged version %d after %d", v, w.version)
	}
	w.version = v
	w.lat = append(w.lat, r.elapsed())
	w.traces = append(w.traces, r.trace)
	return nil
}
