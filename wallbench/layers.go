package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/greedy"
	"vexus/internal/groups"
	"vexus/internal/index"
	"vexus/internal/lda"
	"vexus/internal/linalg"
	"vexus/internal/mining"
	"vexus/internal/mining/lcm"
	"vexus/internal/serve"
	"vexus/internal/store"
)

// The layer pass of a traced run. Request-path layers come from the
// spans of the traced passes and from the shards' own
// apply histograms; the action, optimizer, index, focus, offline and
// store layers are timed by calling their public functions directly on
// the same inputs the cluster served: the same corpus, the warm-up
// sessions' exported trails, and the same kind of ingest batch.

// applyTotals sums both shards' vexus_action_apply_seconds sum and
// count per op.
func (rs *runState) applyTotals() map[string][2]float64 {
	out := map[string][2]float64{}
	for _, sh := range rs.c.shards {
		snap := sh.reg.Snapshot()
		for _, op := range tracedOps[1:] {
			cur := out[op]
			cur[0] += snap[`vexus_action_apply_seconds_sum{op="`+op+`"}`]
			cur[1] += snap[`vexus_action_apply_seconds_count{op="`+op+`"}`]
			out[op] = cur
		}
	}
	return out
}

// timed runs f, records it as a span of the layer pass, and returns
// its duration.
func (rs *runState) timed(name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	rs.tr.add(name, "layers", 0, start, end)
	return end.Sub(start), err
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerPass derives the per-layer metrics and writes the span file.
func (rs *runState) layerPass(an *analyst, w *writer, applyBefore, applyAfter map[string][2]float64) error {
	vals := map[string]float64{}

	// Request path, from the traced half's spans.
	byTrace := rs.tr.byTrace()
	handler := map[string][]float64{}
	var client, shardSpan, hop []float64
	for trace, op := range rs.rec.traces {
		var c, g, s time.Duration
		for _, sp := range byTrace[trace] {
			switch sp.Name {
			case spanClient + "." + op:
				c = sp.dur()
			case spanGateway:
				g = sp.dur()
			case spanShard:
				s = sp.dur()
			}
		}
		if c == 0 || g == 0 || s == 0 {
			continue
		}
		handler[op] = append(handler[op], msOf(s))
		if op == string(action.Explore) {
			client = append(client, msOf(c))
			shardSpan = append(shardSpan, msOf(s))
			hop = append(hop, msOf(g-s))
		}
	}
	var fanout, shardIngest []float64
	for _, trace := range rs.ingTrace {
		for _, sp := range byTrace[trace] {
			switch sp.Name {
			case spanGateway:
				fanout = append(fanout, msOf(sp.dur()))
			case spanShard:
				shardIngest = append(shardIngest, msOf(sp.dur()))
			}
		}
	}
	for _, op := range tracedOps {
		vals["serve.handler_ms."+op] = median(handler[op])
	}
	for _, op := range tracedOps[1:] {
		n := applyAfter[op][1] - applyBefore[op][1]
		if n > 0 {
			vals["action.apply_ms."+op] = (applyAfter[op][0] - applyBefore[op][0]) * 1000 / n
		}
	}
	// The explore split uses means, like explore_mean_ms: the explores
	// of the focus workload are bimodal, and a median of one part less
	// the mean of another would not add up.
	applyMS := vals["action.apply_ms.explore"]
	vals["cluster.hop_ms"] = mean(hop)
	vals["cluster.ingest_fanout_ms"] = median(fanout)
	vals["serve.ingest_ms"] = median(shardIngest)
	vals["serve.self_ms"] = mean(shardSpan) - applyMS
	vals["serve.response_kb"] = mean(rs.rec.respKB)
	vals["stream.lag_ms"] = rs.rec.lag.quantileMS(0.5)
	vals["stream.events"] = float64(rs.rec.events)
	if rs.rec.events > 0 {
		vals["stream.resync_ratio"] = float64(rs.rec.resyncs) / float64(rs.rec.events)
	}
	vals["go.gc_pause_ms"] = msOf(rs.gcPause)
	vals["trace.overhead_ms"] = rs.rec.lat[action.Explore].meanMS() - rs.untraced.lat[action.Explore].meanMS()

	// The client's mean explore split into cluster.hop_ms,
	// serve.self_ms and action.apply_ms.explore, plus what no layer
	// span covers.
	clientMean := mean(client)
	vals["split.client_mean_ms"] = clientMean
	vals["split.unattributed_ms"] = clientMean - vals["cluster.hop_ms"] - vals["serve.self_ms"] - applyMS
	rs.logf("explore split over %d traced requests: client mean %.3f ms = gateway hop %.3f + shard self %.3f + action.Apply %.3f + unattributed %.3f (client↔gateway transport and client decode)",
		len(client), clientMean, vals["cluster.hop_ms"], vals["serve.self_ms"], applyMS, vals["split.unattributed_ms"])

	// Quiet allocation probe, tracing off so spans do not count.
	rs.tr.on.Store(false)
	if err := rs.allocProbe(an, w, vals); err != nil {
		return err
	}
	rs.tr.on.Store(true)

	if err := rs.offlineLayers(vals); err != nil {
		return err
	}

	self := rs.tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs.logf("self time %-24s %10.3f ms over %d spans", name, self[name][0], int(self[name][1]))
	}
	spanDir := filepath.Join(rs.o.out, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", rs.o.workload, rs.o.seed))
	if err := rs.tr.writeFile(path); err != nil {
		return err
	}
	rs.logf("spans written to %s", path)
	return rs.emit(perLayer, vals)
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocProbe measures heap allocated per operation through the gateway
// with nothing else running: explores, focuses and brushes on one
// fresh session, then ingest batches.
func (rs *runState) allocProbe(an *analyst, w *writer, vals map[string]float64) error {
	c := an.c
	st, _, err := c.create(an.dataset)
	if err != nil {
		return err
	}
	sid := st.Session
	mutations := uint64(1)
	per := map[action.Kind][]float64{}
	do := func(act action.Action) error {
		runtime.GC()
		before := allocBytes()
		r, err := c.batch(sid, mutations, []action.Action{act}, true, "")
		after := allocBytes()
		if err != nil {
			return err
		}
		mutations++
		per[act.Op] = append(per[act.Op], float64(after-before)/1024)
		st = state{}
		return json.Unmarshal(r.body, &st)
	}
	for i := 0; i < 4; i++ {
		act, _ := resolve(step{op: action.Explore, pick: i}, &st)
		if err := do(act); err != nil {
			return err
		}
		act, _ = resolve(step{op: action.Focus, pick: i}, &st)
		if err := do(act); err != nil {
			return err
		}
		if act, ok := resolve(step{op: action.Brush, pick: i, pick2: i}, &st); ok {
			if err := do(act); err != nil {
				return err
			}
		}
	}
	if err := c.delete(c.base + "/api/v1/sessions/" + sid); err != nil {
		return err
	}
	var ing []float64
	for i := 0; i < 2; i++ {
		runtime.GC()
		before := allocBytes()
		if err := w.post(liveName); err != nil {
			return err
		}
		ing = append(ing, float64(allocBytes()-before)/1024)
	}
	vals["go.alloc_kb_per_op.explore"] = median(per[action.Explore])
	vals["go.alloc_kb_per_op.focus"] = median(per[action.Focus])
	vals["go.alloc_kb_per_op.brush"] = median(per[action.Brush])
	vals["go.alloc_kb_per_op.ingest"] = median(ing)
	return nil
}

// specData generates a spec's corpus the way a shard catalog does.
func specData(spec serve.DatasetSpec) (*dataset.Dataset, core.PipelineConfig, error) {
	cfg := core.DefaultPipelineConfig()
	cfg.MinSupportFrac = spec.MinSup
	cfg.Workers = pinnedWorkers
	switch spec.Dataset {
	case "dbauthors":
		cfg.Encode = datagen.DBAuthorsEncodeOptions()
		d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: spec.N, Seed: spec.Seed})
		return d, cfg, err
	case "bookcrossing":
		cfg.Encode = datagen.BookCrossingEncodeOptions()
		bc := datagen.SmallScale(spec.Seed)
		bc.NumUsers = spec.N
		d, err := datagen.BookCrossing(bc)
		return d, cfg, err
	}
	return nil, cfg, fmt.Errorf("unknown dataset kind %q", spec.Dataset)
}

// buildByLayer runs the offline pipeline one public stage at a time —
// the stages core.Build chains — timing each. It returns the engine
// and the corpus fingerprint a shard's snapshot of it carries.
func (rs *runState) buildByLayer(spec serve.DatasetSpec, vals map[string]float64) (*core.Engine, store.Fingerprint, error) {
	d, cfg, err := specData(spec)
	if err != nil {
		return nil, store.Fingerprint{}, err
	}
	fp := store.ComputeFingerprint(d, cfg)
	cfg = cfg.Normalized()
	var tx *mining.Transactions
	dEnc, err := rs.timed("mining.encode", func() (err error) { tx, err = mining.Encode(d, cfg.Encode); return })
	if err != nil {
		return nil, fp, err
	}
	miner := lcm.New(mining.Options{MinSupport: cfg.EffectiveMinSupport(d.NumUsers()), MaxLen: cfg.MaxLen, MaxGroups: cfg.MaxGroups})
	var gs []*groups.Group
	dMine, err := rs.timed("lcm.mine", func() (err error) {
		gs, err = mining.MineParallel(miner, tx, mining.ParallelOptions{Workers: cfg.Workers})
		if errors.Is(err, mining.ErrTooManyGroups) {
			err = nil
		}
		return
	})
	if err != nil {
		return nil, fp, err
	}
	var space *groups.Space
	dSpace, err := rs.timed("groups.space", func() (err error) {
		space, err = groups.NewSpaceParallel(d.NumUsers(), tx.Vocab, gs, cfg.Workers)
		return
	})
	if err != nil {
		return nil, fp, err
	}
	var ix *index.Index
	dIndex, err := rs.timed("index.build", func() (err error) {
		ix, err = index.BuildParallel(space, cfg.IndexFraction, cfg.Workers)
		return
	})
	if err != nil {
		return nil, fp, err
	}
	vals["mining.encode_ms"] = msOf(dEnc)
	vals["lcm.mine_ms"] = msOf(dMine)
	vals["groups.space_ms"] = msOf(dSpace)
	vals["groups.count"] = float64(space.Len())
	vals["index.build_ms"] = msOf(dIndex)
	vals["index.bytes"] = float64(ix.MemoryBytes())
	return core.RestoreEngine(d, tx, space, ix, core.RestoreInfo{Miner: miner.Name(), Config: cfg, DefaultMiner: true}), fp, nil
}

// offlineLayers times the offline, store, action, optimizer, index and
// focus layers directly.
func (rs *runState) offlineLayers(vals map[string]float64) error {
	spec := rs.wl.specs[mainName]
	eng, fp, err := rs.buildByLayer(spec, vals)
	if err != nil {
		return err
	}
	if err := rs.replayLayers(eng, vals); err != nil {
		return err
	}

	// Store: save and load the analyst's engine.
	path := filepath.Join(rs.root, "layers.snap")
	dSave, err := rs.timed("store.save", func() error { return store.SaveFile(path, eng, fp) })
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	var loaded *core.Engine
	dLoad, err := rs.timed("store.load", func() (err error) { loaded, _, err = store.LoadFile(path, pinnedWorkers); return })
	if err != nil {
		return err
	}
	if loaded.Space.Len() != eng.Space.Len() {
		rs.check.fail("store: reloaded %d groups, saved %d", loaded.Space.Len(), eng.Space.Len())
	}
	vals["store.save_ms"] = msOf(dSave)
	vals["store.load_ms"] = msOf(dLoad)
	vals["store.bytes"] = float64(info.Size())

	// Ingest: core.Ingest and the delta append on the live corpus.
	ld, lcfg, err := specData(rs.wl.specs[liveName])
	if err != nil {
		return err
	}
	live, err := core.Build(ld, lcfg)
	if err != nil {
		return err
	}
	liveFP := store.ComputeFingerprint(ld, lcfg)
	livePath := filepath.Join(rs.root, "live-layers.snap")
	if err := store.SaveFile(livePath, live, liveFP); err != nil {
		return err
	}
	r := newBatchRNG(rs.o.seed)
	next := 0
	var ingestMS, appendMS []float64
	for i := 0; i < 3; i++ {
		b := ingestBatch(r, &next, rs.o.sizes.batchAuthors)
		b.Seq = live.Version()
		var ne *core.Engine
		dIng, err := rs.timed("core.ingest", func() (err error) { ne, err = live.Ingest(b); return })
		if err != nil {
			return err
		}
		dApp, err := rs.timed("store.delta_append", func() error {
			return store.AppendDeltaFile(livePath, b, store.ChainFingerprint(liveFP, ne.Lineage()))
		})
		if err != nil {
			return err
		}
		ingestMS = append(ingestMS, msOf(dIng))
		appendMS = append(appendMS, msOf(dApp))
		live = ne
	}
	vals["core.ingest_ms"] = median(ingestMS)
	vals["store.delta_append_ms"] = median(appendMS)
	return nil
}

// replayLayers replays the warm-up sessions' exported trails on a
// local engine built from the same corpus: action.Replay must
// reproduce each session, and each action is also timed with and
// without its diff, with the optimizer, index, focus, LDA and brush
// calls it makes timed directly on the same inputs.
func (rs *runState) replayLayers(eng *core.Engine, vals map[string]float64) error {
	gcfg := shardGreedy()
	opt := greedy.New(eng.Space, eng.Index)
	var selectMS, cands, filled, neighborsUS, focusMS, ldaMS, brushUS []float64
	var withDiff, quiet time.Duration
	actions := 0
	for _, trail := range rs.warm.warmLog {
		replayed, err := action.Replay(eng, gcfg, trail)
		if err != nil {
			rs.check.fail("action.Replay of a warm-up trail: %v", err)
			continue
		}
		a, q := action.New(eng, gcfg), action.New(eng, gcfg)
		for _, act := range trail {
			switch act.Op {
			case action.Explore:
				focal := eng.Space.Group(act.Group)
				var sel greedy.Selection
				d, err := rs.timed("greedy.select", func() (err error) { sel, err = opt.SelectNext(focal, a.Sess.Feedback(), gcfg); return })
				if err != nil {
					return err
				}
				selectMS = append(selectMS, msOf(d))
				cands = append(cands, float64(sel.Candidates))
				filled = append(filled, float64(sel.FilledBySimilarity))
				d, _ = rs.timed("index.neighbors", func() error { eng.Index.Neighbors(act.Group, gcfg.CandidatePool); return nil })
				neighborsUS = append(neighborsUS, float64(d)/float64(time.Microsecond))
			case action.Focus:
				d, err := rs.timed("core.focus", func() error { _, err := a.Sess.Focus(act.Group, act.Class); return err })
				if err != nil {
					return err
				}
				focusMS = append(focusMS, msOf(d))
				x, labels := ldaInputs(eng, act.Group)
				if len(labels) >= 3 {
					d, _ = rs.timed("lda.project", func() error { _, err := lda.Project(x, labels, lda.DefaultConfig()); return err })
					ldaMS = append(ldaMS, msOf(d))
				}
			case action.Brush:
				if a.Focus != nil {
					// Brushing is idempotent, so the Apply below leaves the
					// view exactly as this direct call did.
					d, err := rs.timed("core.brush", func() error { return a.Focus.Brush(act.Attr, act.Values...) })
					if err != nil {
						return err
					}
					brushUS = append(brushUS, float64(d)/float64(time.Microsecond))
				}
			}
			d, err := rs.timed("action.apply", func() error { _, err := action.Apply(a, act); return err })
			if err != nil {
				return err
			}
			withDiff += d
			d, err = rs.timed("action.apply_quiet", func() error { return action.ApplyQuiet(q, act) })
			if err != nil {
				return err
			}
			quiet += d
			actions++
		}
		if replayed.Mutations != uint64(len(trail)) || a.Mutations != replayed.Mutations ||
			fmt.Sprint(a.Sess.Shown()) != fmt.Sprint(replayed.Sess.Shown()) {
			rs.check.fail("replayed trail diverged: %d mutations, shown %v vs %v",
				replayed.Mutations, replayed.Sess.Shown(), a.Sess.Shown())
		}
	}
	if actions > 0 {
		vals["action.diff_ms"] = msOf(withDiff-quiet) / float64(actions)
	}
	vals["greedy.select_ms"] = median(selectMS)
	vals["greedy.candidates"] = mean(cands)
	vals["greedy.filled_by_similarity"] = mean(filled)
	vals["index.neighbors_us"] = median(neighborsUS)
	vals["core.focus_ms"] = median(focusMS)
	vals["lda.project_ms"] = median(ldaMS)
	vals["core.brush_us"] = median(brushUS)
	return nil
}

// ldaInputs rebuilds the matrix and labels core.Focus projects: the
// members' term-indicator vectors, labelled by the first schema
// attribute.
func ldaInputs(eng *core.Engine, gid int) (*linalg.Mat, []int) {
	members := eng.Space.Group(gid).Members.Indices()
	vocab := eng.Tx.Vocab.Len()
	rows := make([][]float64, len(members))
	labels := make([]int, len(members))
	for i, u := range members {
		vec := make([]float64, vocab)
		for _, id := range eng.Tx.PerUser[u] {
			vec[id] = 1
		}
		rows[i] = vec
		l := eng.Data.Users[u].Demo[0]
		if l == dataset.Missing {
			l = -1
		}
		labels[i] = l
	}
	return linalg.FromRows(rows), labels
}
