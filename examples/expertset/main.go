// Expertset reproduces Scenario 1 of the paper (§III, multi-target
// task): a program-committee chair uses VEXUS to assemble an expert
// set of geographically distributed male and female researchers. A
// simulated chair explores the group space, bookmarking recognized
// experts from each visited group, and the run reports how many
// iterations the committee took — the paper claims fewer than 10 on
// average for SIGMOD/VLDB/CIKM-scale committees.
package main

import (
	"fmt"
	"log"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/greedy"
	"vexus/internal/rng"
	"vexus/internal/simulate"
)

func main() {
	data, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 2000, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.DBAuthorsEncodeOptions()
	cfg.MinSupportFrac = 0.02
	eng, err := core.Build(data, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline: %d groups over %d researchers\n\n", eng.Space.Len(), data.NumUsers())

	for _, venue := range []string{"SIGMOD", "VLDB", "CIKM"} {
		target := simulate.CommitteeTarget(eng, venue, 2, 60)
		quota := 30
		if target.Count() < quota {
			quota = target.Count()
		}
		as := action.New(eng, greedy.DefaultConfig())
		res := simulate.RunMT(as, simulate.MTTask{
			Target:            target,
			Quota:             quota,
			MaxIterations:     20,
			MaxInspectPerStep: 8, // the chair reviews a bounded member table per step
		}, simulate.GreedyPolicy(), rng.New(99))

		fmt.Printf("%s committee: %d candidates, quota %d\n", venue, target.Count(), quota)
		fmt.Printf("  formed in %d iterations (success=%v, collected %d)\n",
			res.Iterations, res.Success, res.Collected)

		// Committee composition report: the diversity dimensions the
		// chair cares about.
		members := as.Sess.Memo().Users()
		genders := map[string]int{}
		countries := map[string]int{}
		gi := data.Schema.AttrIndex("gender")
		ci := data.Schema.AttrIndex("country")
		for _, u := range members {
			if v, ok := data.DemoValue(u, gi); ok {
				genders[v]++
			}
			if v, ok := data.DemoValue(u, ci); ok {
				countries[v]++
			}
		}
		fmt.Printf("  gender mix: %v\n  countries: %d distinct\n\n", genders, len(countries))
	}
}
