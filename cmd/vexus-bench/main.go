// vexus-bench regenerates every quantitative claim of the paper and
// gates the cluster's fail-closed invariants: run `vexus-bench -e all`
// for the full suite or `-e e1,e4` for a subset. e1–e9 each print a
// table whose shape should match the paper's claim; p7 drives the
// load/chaos harness (internal/loadsim) and f1 lists the modules of
// Fig. 1. Wall-clock serving speed is measured by wallbench
// (`bash wallbench/run.sh`), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		exps  = flag.String("e", "all", "comma-separated experiments (e1..e9,p7,f1) or 'all'")
		seed  = flag.Uint64("seed", 42, "master seed for synthetic data and simulations")
		scale = flag.String("scale", "small", "e9/p7 scale: small | paper")
	)
	flag.IntVar(&workersFlag, "workers", 0,
		"worker count for the parallel mining/simulation paths (0 = NumCPU, 1 = sequential)")
	flag.StringVar(&benchNote, "bench-note", "",
		"write the p7 note to this JSON file (e.g. BENCH_cluster_scale.json)")
	flag.IntVar(&p7Live, "live", 0, "p7: live analysts driving real sessions (0 = scale preset)")
	flag.IntVar(&p7Shards, "lshards", 0, "p7: cluster size (0 = scale preset)")
	flag.IntVar(&p7Ticks, "ticks", 0, "p7: virtual run length in ticks (0 = scale preset)")
	flag.StringVar(&p7Chaos, "chaos", "", `p7: fault schedule "tick:op[:target],..." ("" = default schedule, "none" = fault-free)`)
	flag.Parse()

	runners := map[string]func(uint64, string) error{
		"e1": runE1, "e2": runE2, "e3": runE3, "e4": runE4, "e5": runE5,
		"e6": runE6, "e7": runE7, "e8": runE8, "e9": runE9,
		"p7": runP7, "f1": runF1,
	}
	order := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "p7", "f1"}

	var selected []string
	if *exps == "all" {
		selected = order
	} else {
		for _, e := range strings.Split(*exps, ",") {
			e = strings.TrimSpace(strings.ToLower(e))
			if _, ok := runners[e]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (have %v)\n", e, order)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		if err := runners[e](*seed, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func header(id, claim string) {
	fmt.Printf("=== %s ===\n", id)
	fmt.Printf("paper claim: %s\n\n", claim)
}
