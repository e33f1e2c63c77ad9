// Package core implements VEXUS itself: the offline pipeline of Fig. 1
// (ETL'd dataset → group discovery → inverted similarity index) and the
// interactive exploration session with the five visual modules of
// Fig. 2 — GROUPVIZ (the k displayed groups), CONTEXT (the feedback
// vector), STATS (crossfilter histograms + LDA focus view over a
// group's members), HISTORY (the navigation trail with backtrack), and
// MEMO (bookmarked groups and users, the analysis goal).
package core

import (
	"errors"
	"fmt"
	"time"

	"vexus/internal/dataset"
	"vexus/internal/greedy"
	"vexus/internal/groups"
	"vexus/internal/index"
	"vexus/internal/mining"
	"vexus/internal/mining/lcm"
)

// PipelineConfig parameterizes the offline stage.
type PipelineConfig struct {
	// Encode selects which dataset dimensions become mining terms.
	Encode mining.EncodeOptions
	// Miner discovers the groups; nil uses LCM with the bounds below
	// (the paper's default choice for user datasets).
	Miner mining.Miner
	// MinSupportFrac is the minimum group size as a fraction of the
	// user count when Miner is nil (default 0.01, floor 2 users).
	MinSupportFrac float64
	// MaxLen caps description length for the default miner (default 4).
	MaxLen int
	// MaxGroups aborts pattern explosion for the default miner
	// (default 100000).
	MaxGroups int
	// IndexFraction is the paper's materialized share of each inverted
	// list (default 0.10). The engine ignores it: its index computes
	// exact lists on demand (see internal/index). The field stays only
	// for the §II-A study (vexus-bench E2) and the wall-clock
	// benchmark's traced run, which build the prefix index themselves.
	IndexFraction float64
	// Workers bounds the goroutines used by the parallel stages of the
	// pipeline — group discovery (for miners implementing
	// mining.ParallelMiner) and space inversion (0 = runtime.NumCPU(),
	// 1 = fully sequential).
	// Any value produces bit-identical engines; only wall clock
	// changes.
	Workers int
}

// DefaultPipelineConfig returns the configuration used by the
// experiments and examples.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Encode:         mining.DefaultEncodeOptions(),
		MinSupportFrac: 0.01,
		MaxLen:         4,
		MaxGroups:      100_000,
		IndexFraction:  0.10,
	}
}

// Normalized returns a copy with every result-affecting default filled
// in, exactly as Build applies them (mirroring mining.Options.Normalized):
// MaxLen 0 → 4, MaxGroups 0 → 100000. IndexFraction 0 → 0.10 too,
// though no engine reads it.
// MinSupportFrac is left as given — its floor depends on the dataset
// size and is exposed separately via EffectiveMinSupport. Two configs
// that normalize equal build bit-identical engines on the same data,
// which is the contract snapshot fingerprints rely on.
func (cfg PipelineConfig) Normalized() PipelineConfig {
	if cfg.MaxLen == 0 {
		cfg.MaxLen = 4
	}
	if cfg.MaxGroups == 0 {
		cfg.MaxGroups = 100_000
	}
	if cfg.IndexFraction == 0 {
		cfg.IndexFraction = 0.10
	}
	return cfg
}

// EffectiveMinSupport is the absolute minimum group size the default
// miner uses on a dataset of numUsers users: MinSupportFrac of the
// user count, floored at 2. This — not the raw fraction — is what
// determines the mined space, so it is what fingerprints hash.
func (cfg PipelineConfig) EffectiveMinSupport(numUsers int) int {
	minSup := int(cfg.MinSupportFrac * float64(numUsers))
	if minSup < 2 {
		minSup = 2
	}
	return minSup
}

// Timings records offline-stage wall clock for E9 reports.
type Timings struct {
	Encode time.Duration
	Mine   time.Duration
}

// BatchDigest is the SHA-256 content address of one ingestion batch —
// the unit of the engine's lineage (see Engine.Lineage).
type BatchDigest [32]byte

// Engine is the built offline state: everything a Session navigates.
// An engine value is immutable after Build; Ingest produces a *new*
// engine at the next version rather than mutating in place, so
// sessions holding an older version keep serving it unchanged.
type Engine struct {
	Data    *dataset.Dataset
	Tx      *mining.Transactions
	Space   *groups.Space
	Index   *index.Index
	Miner   string
	Timings Timings

	// sizeOrder is all group ids sorted by descending size, computed
	// once at Build: the initial display of every fresh session is a
	// prefix of it, so session creation never re-sorts the space.
	sizeOrder []int

	// cfg is the normalized pipeline configuration the engine was built
	// with — Ingest re-runs the pipeline under it so the result is
	// byte-identical to Build on the augmented dataset.
	cfg PipelineConfig

	// lineage is the ordered digests of every ingestion batch applied
	// since the base build; Version() is 1+len(lineage).
	lineage []BatchDigest

	// noIngest marks engines restored from a snapshot that was built
	// with a custom miner: the miner itself is not serializable, so the
	// pipeline cannot be replayed and Ingest must refuse.
	noIngest bool
}

// Version is the engine's monotonically increasing generation: 1 for a
// fresh Build, +1 per ingested batch. Engine versions are immutable —
// a new version is always a new *Engine value.
func (e *Engine) Version() uint64 { return 1 + uint64(len(e.lineage)) }

// Config returns the normalized pipeline configuration the engine was
// built with.
func (e *Engine) Config() PipelineConfig { return e.cfg }

// Lineage returns a copy of the digests of the ingestion batches
// applied since the base build, in application order.
func (e *Engine) Lineage() []BatchDigest {
	return append([]BatchDigest(nil), e.lineage...)
}

// Build runs the offline pipeline on an already-ETL'd dataset.
func Build(d *dataset.Dataset, cfg PipelineConfig) (*Engine, error) {
	cfg = cfg.Normalized()
	start := time.Now()
	tx, err := mining.Encode(d, cfg.Encode)
	if err != nil {
		return nil, fmt.Errorf("core: encode: %w", err)
	}
	encodeTime := time.Since(start)

	miner := cfg.Miner
	if miner == nil {
		miner = lcm.New(mining.Options{
			MinSupport: cfg.EffectiveMinSupport(d.NumUsers()),
			MaxLen:     cfg.MaxLen,
			MaxGroups:  cfg.MaxGroups,
		})
	}
	start = time.Now()
	// Miners with a parallel entry point (LCM) shard enumeration over
	// cfg.Workers; the rest run their sequential Mine. Either way the
	// result is bit-identical to a 1-worker run.
	gs, err := mining.MineParallel(miner, tx, mining.ParallelOptions{Workers: cfg.Workers})
	if err != nil && !errors.Is(err, mining.ErrTooManyGroups) {
		return nil, fmt.Errorf("core: mining (%s): %w", miner.Name(), err)
	}
	mineTime := time.Since(start)
	if len(gs) == 0 {
		return nil, fmt.Errorf("core: %s discovered no groups; lower the support threshold", miner.Name())
	}
	space, err := groups.NewSpaceParallel(d.NumUsers(), tx.Vocab, gs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: building space: %w", err)
	}

	order := make([]int, space.Len())
	for i := range order {
		order[i] = i
	}
	space.SortBySize(order)

	return &Engine{
		Data:      d,
		Tx:        tx,
		Space:     space,
		Index:     index.New(space),
		Miner:     miner.Name(),
		sizeOrder: order,
		cfg:       cfg,
		Timings: Timings{
			Encode: encodeTime,
			Mine:   mineTime,
		},
	}, nil
}

// RestoreInfo carries the metadata side of a snapshot back into
// RestoreEngine: the miner name, the original build's wall clock, the
// normalized pipeline configuration, whether that configuration used
// the default (replayable) miner, and the ingestion lineage.
type RestoreInfo struct {
	Miner        string
	Timings      Timings
	Config       PipelineConfig
	DefaultMiner bool
	Lineage      []BatchDigest
}

// RestoreEngine reassembles an Engine from already-built offline parts
// — the snapshot load path (internal/store). The size order is
// recomputed rather than deserialized (SortBySize is deterministic, so
// the result is identical to the order Build produced and can never
// disagree with the restored space). Timings carries the *original*
// build's wall clock for reporting; the load itself is expected to be
// far cheaper.
func RestoreEngine(d *dataset.Dataset, tx *mining.Transactions, space *groups.Space, ix *index.Index, info RestoreInfo) *Engine {
	order := make([]int, space.Len())
	for i := range order {
		order[i] = i
	}
	space.SortBySize(order)
	return &Engine{
		Data:      d,
		Tx:        tx,
		Space:     space,
		Index:     ix,
		Miner:     info.Miner,
		sizeOrder: order,
		cfg:       info.Config.Normalized(),
		lineage:   append([]BatchDigest(nil), info.Lineage...),
		noIngest:  !info.DefaultMiner,
		Timings:   info.Timings,
	}
}

// GroupLabel renders a group's description through the engine's vocab.
func (e *Engine) GroupLabel(gid int) string {
	return e.Space.Group(gid).Desc.Label(e.Space.Vocab)
}

// NewSession starts an interactive exploration over the engine.
func (e *Engine) NewSession(cfg greedy.Config) *Session {
	return newSession(e, cfg)
}

// GroupView is one GROUPVIZ circle: enough to render size, color and
// hover text (Fig. 2 (a)).
type GroupView struct {
	ID    int
	Label string
	Size  int
	// ColorShares is the distribution of the selected color attribute
	// over the group's members (index-aligned with the attribute's
	// Values; the final entry counts missing values).
	ColorShares []float64
	// Similarity to the current focal group (0 for the initial view).
	Similarity float64
}

// groupView assembles the view of one group; colorAttr < 0 disables
// color coding.
func (e *Engine) groupView(gid, colorAttr int, focal *groups.Group) GroupView {
	g := e.Space.Group(gid)
	v := GroupView{
		ID:    gid,
		Label: e.GroupLabel(gid),
		Size:  g.Size(),
	}
	if focal != nil {
		v.Similarity = focal.Jaccard(g)
	}
	if colorAttr >= 0 && colorAttr < e.Data.Schema.NumAttrs() {
		attr := e.Data.Schema.Attrs[colorAttr]
		shares := make([]float64, len(attr.Values)+1)
		total := 0
		g.Members.Range(func(u int) bool {
			dv := e.Data.Users[u].Demo[colorAttr]
			if dv == dataset.Missing {
				shares[len(shares)-1]++
			} else {
				shares[dv]++
			}
			total++
			return true
		})
		if total > 0 {
			for i := range shares {
				shares[i] /= float64(total)
			}
		}
		v.ColorShares = shares
	}
	return v
}
