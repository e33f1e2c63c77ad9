// Command wallbench is the repository's wall-clock benchmark. It runs
// one workload against a real two-shard VEXUS cluster — the gateway in
// front of two catalog shards, over loopback HTTP, all in this process
// — checks the outputs, and prints the metrics. README.md describes
// the workloads and metrics; run it through run.sh:
//
//	bash wallbench/run.sh --workload browse --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 runs a separate traced run and reports
// the per-layer metrics, writing its spans under --out/spans.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: browse or focus")
		seed     = flag.Uint64("seed", 1, "seed of the order the trail pool is played in and of the ingest batches")
		seconds  = flag.Float64("seconds", 30, "how long the analyst is measured, in seconds (whole passes over the trail pool)")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out      = flag.String("out", ".bench_build/wallbench", "directory for scratch snapshots and span files")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "wallbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: fullSizes, out: *out}
	fmt.Printf("stamp: %s\n", stamp(o))
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %v\n", err)
		os.Exit(1)
	}
	ratio := float64(res.Failed) / float64(res.Attempted)
	fmt.Printf("error_ratio: %d failed of %d attempted = %.6f\n", res.Failed, res.Attempted, ratio)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// stamp describes the machine and settings a result was measured with.
func stamp(o options) string {
	s, _ := json.Marshal(map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       o.seed,
		"workers":    pinnedWorkers,
		"workload":   o.workload,
		"seconds":    o.seconds,
		"trace":      o.trace,
	})
	return string(s)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
