package greedy_test

import (
	"testing"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/greedy"
)

// BenchmarkConstructColumns counts the Jaccard columns lazy
// construction fills per step on the steps BenchmarkSelectNext times at
// authors=3000 (the browse corpus: DB-AUTHORS, 3,000 authors, minsup
// 0.02; four 10-click trails at TimeLimit 0). eager-columns/step is what
// extending every live candidate by each of the first k − 1 picks
// would fill: Σ_{p=1}^{k−1} (|pool| − p).
func BenchmarkConstructColumns(b *testing.B) {
	d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 3000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	pcfg := core.DefaultPipelineConfig()
	pcfg.Encode = datagen.DBAuthorsEncodeOptions()
	pcfg.MinSupportFrac = 0.02
	eng, err := core.Build(d, pcfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 0
	opt := greedy.New(eng.Space, eng.Index)
	b.ResetTimer()
	var steps, lazy, eager int
	for i := 0; i < b.N; i++ {
		steps, lazy, eager = 0, 0, 0
		for trail := 0; trail < 4; trail++ {
			as := action.New(eng, cfg)
			if err := action.ApplyQuiet(as, action.Action{Op: action.Start}); err != nil {
				b.Fatal(err)
			}
			for click := 0; click < 10; click++ {
				shown := as.Sess.Shown()
				gid := shown[(trail+click)%len(shown)]
				if err := action.ApplyQuiet(as, action.Action{Op: action.Explore, Group: gid}); err != nil {
					b.Fatal(err)
				}
				n, cols := opt.ConstructColumns(eng.Space.Group(gid), as.Sess.Feedback(), cfg)
				steps++
				lazy += cols
				for p := 1; p < min(cfg.K, n); p++ {
					eager += n - p
				}
			}
		}
	}
	b.ReportMetric(float64(lazy)/float64(steps), "columns/step")
	b.ReportMetric(float64(eager)/float64(steps), "eager-columns/step")
}
