package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"

	"vexus/internal/loadsim"
)

// p7 knobs (registered in main). Zero values defer to the -scale
// presets; -chaos "" keeps the preset's default schedule. benchNote is
// the -bench-note JSON target of the p7 note.
var (
	benchNote string

	p7Users  int
	p7Live   int
	p7Shards int
	p7Ticks  int
	p7Chaos  string

	baselineFlag    string
	regressPctFlag  float64
	regressExitCode = 3
)

// runP7 is the cluster-scale load/chaos experiment: a Zipf population
// of simulated analysts driving a multi-shard in-process cluster
// through the real v1 API and SSE streams while the default fault
// schedule (kill, gateway restart, partition/heal, drain, engine
// eviction) runs, with every fail-closed invariant asserted. The
// regression sub-object of the JSON note is what -baseline gates on.
func runP7(seed uint64, scale string) error {
	header("p7", "cluster sustains interactive latency and fails closed under churn")

	cfg := loadsim.Config{
		Users:  2_000,
		Live:   48,
		Shards: 3,
		Ticks:  60,
		Seed:   seed,
		Chaos:  "default",
	}
	if scale == "paper" {
		cfg.Users = 10_000
		cfg.Ticks = 120
		cfg.Live = 64
	}
	if p7Users > 0 {
		cfg.Users = p7Users
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
	fmt.Printf("%-26s %12d\n", "analysts", s.Users)
	fmt.Printf("%-26s %12d\n", "virtual actions", s.VirtualActions)
	fmt.Printf("%-26s %12d\n", "live creates", s.LiveCreates)
	fmt.Printf("%-26s %12.2f\n", "p50 latency ms", s.LatencyP50Ms)
	fmt.Printf("%-26s %12.2f\n", "p99 latency ms", s.LatencyP99Ms)
	fmt.Printf("%-26s %12.2f\n", "p99.9 latency ms", s.LatencyP999Ms)
	fmt.Printf("%-26s %12.2f\n", "mean queue depth", s.QueueMeanDepth)
	fmt.Printf("%-26s %12.2f\n", "max queue depth", s.QueueMaxDepth)
	fmt.Printf("%-26s %12d\n", "sessions lost", s.SessionsLost)
	fmt.Printf("%-26s %12d\n", "drain moved", s.DrainMoved)
	fmt.Printf("%-26s %12d\n", "engine evictions", s.EngineEvictions)
	fmt.Printf("%-26s %12d\n", "sse events delivered", s.SSEDelivered)
	fmt.Println()
	for _, ev := range s.ChaosApplied {
		fmt.Printf("chaos: %s\n", ev)
	}

	violations := s.MisroutedSessions + s.EtagBreaks + s.EpochViolations +
		s.ChaosErrors + s.AuditFailures + s.FailOpenSessions
	if !s.RestartPreserved {
		violations++
	}
	if violations != 0 {
		return fmt.Errorf("p7: %d fail-closed violations (misrouted=%d etag=%d epoch=%d chaos=%d audit=%d failopen=%d restartOK=%v)",
			violations, s.MisroutedSessions, s.EtagBreaks, s.EpochViolations,
			s.ChaosErrors, s.AuditFailures, s.FailOpenSessions, s.RestartPreserved)
	}
	fmt.Printf("\nfail-closed invariants: all clean (misrouted 0, etag breaks 0, epoch violations 0, ghosts 0)\n")

	regression := map[string]float64{
		"p50_ms":           s.LatencyP50Ms,
		"p99_ms":           s.LatencyP99Ms,
		"p999_ms":          s.LatencyP999Ms,
		"queue_mean_depth": s.QueueMeanDepth,
	}
	note := struct {
		Experiment string             `json:"experiment"`
		NumCPU     int                `json:"num_cpu"`
		Seed       uint64             `json:"seed"`
		Summary    *loadsim.Summary   `json:"summary"`
		Regression map[string]float64 `json:"regression"`
	}{
		Experiment: "cluster_scale",
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Summary:    s,
		Regression: regression,
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

	if baselineFlag != "" {
		if err := checkBaseline(regression); err != nil {
			fmt.Fprintf(os.Stderr, "regression gate: %v\n", err)
			os.Exit(regressExitCode)
		}
		fmt.Printf("regression gate: within %.1f%% of %s\n", regressPctFlag, baselineFlag)
	}
	return nil
}

// checkBaseline compares the current run's regression metrics against
// the "regression" object of a previously written bench note. Any
// metric more than -regress-threshold percent worse than its baseline
// fails the gate; metrics absent from the baseline are skipped (so new
// metrics can be introduced without invalidating old baselines).
func checkBaseline(current map[string]float64) error {
	raw, err := os.ReadFile(baselineFlag)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var note struct {
		Regression map[string]float64 `json:"regression"`
	}
	if err := json.Unmarshal(raw, &note); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselineFlag, err)
	}
	if len(note.Regression) == 0 {
		return fmt.Errorf("baseline %s has no regression object", baselineFlag)
	}
	keys := make([]string, 0, len(current))
	for k := range current {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var failures []string
	for _, k := range keys {
		base, ok := note.Regression[k]
		if !ok {
			continue
		}
		cur := current[k]
		limit := base * (1 + regressPctFlag/100)
		if base == 0 {
			// A zero baseline (e.g. empty queue) tolerates absolute noise
			// up to the threshold expressed in the metric's own unit.
			limit = regressPctFlag / 100
		}
		if cur > limit {
			failures = append(failures, fmt.Sprintf("%s: %.4f > %.4f (baseline %.4f +%.1f%%)", k, cur, limit, base, regressPctFlag))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d metric(s) regressed past threshold:\n  %s", len(failures), joinLines(failures))
	}
	return nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
