package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"vexus/internal/loadsim"
)

// p7 knobs (registered in main). Zero values defer to the -scale
// presets; -chaos "" keeps the preset's default schedule. benchNote is
// the -bench-note JSON target of the p7 note.
var (
	benchNote string

	p7Live   int
	p7Shards int
	p7Ticks  int
	p7Chaos  string
)

// runP7 is the cluster-scale load/chaos experiment: analysts with
// Zipf-ranked arrival rates driving real sessions on a multi-shard
// in-process cluster through the v1 API and SSE streams while the
// default fault schedule (kill, gateway restart, partition/heal,
// drain, engine eviction) runs. Any fail-closed violation
// (loadsim.Summary.FailClosed) fails the experiment. It reports
// counts, not latencies: serving speed is wallbench's job.
func runP7(seed uint64, scale string) error {
	header("p7", "cluster fails closed under churn: no misroute, ETag break, epoch slip or ghost session")

	cfg := loadsim.Config{
		Live:   48,
		Shards: 3,
		Ticks:  60,
		Seed:   seed,
		Chaos:  "default",
	}
	if scale == "paper" {
		cfg.Ticks = 120
		cfg.Live = 64
	}
	if p7Live > 0 {
		cfg.Live = p7Live
	}
	if p7Shards > 0 {
		cfg.Shards = p7Shards
	}
	if p7Ticks > 0 {
		cfg.Ticks = p7Ticks
	}
	switch p7Chaos {
	case "":
	case "none":
		cfg.Chaos = ""
	default:
		cfg.Chaos = p7Chaos
	}
	cfg.Workers = workersFlag

	s, err := loadsim.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("%-26s %12s\n", "metric", "value")
	fmt.Printf("%-26s %12d\n", "live creates", s.LiveCreates)
	fmt.Printf("%-26s %12d\n", "sessions lost", s.SessionsLost)
	fmt.Printf("%-26s %12d\n", "drain moved", s.DrainMoved)
	fmt.Printf("%-26s %12d\n", "engine evictions", s.EngineEvictions)
	fmt.Printf("%-26s %12d\n", "sse events delivered", s.SSEDelivered)
	fmt.Println()
	for _, ev := range s.ChaosApplied {
		fmt.Printf("chaos: %s\n", ev)
	}

	if err := s.FailClosed(); err != nil {
		return fmt.Errorf("p7: %w", err)
	}
	fmt.Printf("\nfail-closed invariants: all clean (misrouted 0, etag breaks 0, epoch violations 0, ghosts 0, bad batches 0, other errors 0, drain counts agree)\n")

	note := struct {
		Experiment string           `json:"experiment"`
		NumCPU     int              `json:"num_cpu"`
		Seed       uint64           `json:"seed"`
		Summary    *loadsim.Summary `json:"summary"`
	}{
		Experiment: "cluster_scale",
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Summary:    s,
	}
	enc, err := json.MarshalIndent(note, "", "  ")
	if err != nil {
		return err
	}
	if benchNote != "" {
		if err := os.WriteFile(benchNote, append(enc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("bench note written to %s\n", benchNote)
	} else {
		fmt.Printf("%s\n", enc)
	}
	return nil
}
