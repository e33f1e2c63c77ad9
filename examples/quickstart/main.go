// Quickstart: generate a small researcher dataset, run the VEXUS
// offline pipeline (encode → mine groups → build the similarity
// index), then take three interactive exploration steps and print what
// an explorer would see.
package main

import (
	"fmt"
	"log"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/greedy"
)

func main() {
	// 1. User data: 1,000 synthetic database researchers.
	data, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 1000, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d users, %d items, %d actions\n",
		data.NumUsers(), data.NumItems(), data.NumActions())

	// 2. Offline pipeline (Fig. 1): groups; the inverted similarity
	// index computes each list on demand.
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.DBAuthorsEncodeOptions()
	eng, err := core.Build(data, cfg)
	if err != nil {
		log.Fatal(err)
	}
	stats := eng.Space.ComputeStats()
	fmt.Printf("pipeline: %d groups (mean size %.1f) in %v mining\n\n",
		stats.NumGroups, stats.MeanSize, eng.Timings.Mine.Round(1e6))

	// 3. Explore: start, then follow the biggest group twice. Every
	// interaction is a typed action applied to the session.
	as := action.New(eng, greedy.DefaultConfig())
	if _, err := action.Apply(as, action.Action{Op: action.Start}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("initial GROUPVIZ (k largest groups):")
	printShown(eng, as.Sess.Shown())

	for step := 1; step <= 3; step++ {
		pick := as.Sess.Shown()[0]
		t0 := time.Now()
		res, err := action.Apply(as, action.Action{Op: action.Explore, Group: pick})
		if err != nil {
			log.Fatal(err)
		}
		m := res.Metrics
		fmt.Printf("\nstep %d: clicked %q\n", step, eng.GroupLabel(pick))
		fmt.Printf("  optimizer: coverage %.2f, diversity %.2f in %v (%d candidates)\n",
			m.Coverage, m.Diversity, time.Since(t0).Round(1e5), m.Candidates)
		printShown(eng, as.Sess.Shown())
	}

	// 4. The CONTEXT module shows what VEXUS has learned.
	fmt.Println("\nCONTEXT (learned feedback):")
	for _, e := range as.Sess.Context(5) {
		fmt.Printf("  %-40s %.3f\n", e.Label, e.Score)
	}
}

func printShown(eng *core.Engine, ids []int) {
	for _, gid := range ids {
		g := eng.Space.Group(gid)
		fmt.Printf("  [%4d users] %s\n", g.Size(), eng.GroupLabel(gid))
	}
}
