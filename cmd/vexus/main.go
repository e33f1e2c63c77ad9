// vexus is the terminal client: it loads user data (synthetic or CSV),
// runs the offline pipeline, and opens an interactive exploration REPL
// with text renderings of the five visual modules — GROUPVIZ as a
// bubble table, CONTEXT, STATS histograms, HISTORY and MEMO.
//
// Commands inside the REPL:
//
//	show                 redisplay the current groups
//	go <n>               explore the n-th displayed group
//	focus <n>            open STATS on the n-th displayed group
//	brush <attr> <val>   constrain the focused group's members
//	table                list selected members of the focused group
//	context              show the feedback profile
//	unlearn <field=val>  delete a value from the profile
//	history              show the trail; back <i> backtracks
//	mark <n> / marku <id> bookmark group / user
//	memo                 show bookmarks
//	quit
//
// With -script actions.json the client runs non-interactively instead:
// the file (a bare JSON array of actions, or a v2 saved session) is
// replayed through internal/action.Apply — the same dispatcher behind
// the HTTP API and the simulator — printing a per-action diff summary
// and the final display. See examples/scripts/ for a sample log.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"vexus/internal/action"
	"vexus/internal/greedy"
	"vexus/internal/serve"
	"vexus/internal/store"
)

func main() {
	var (
		which   = flag.String("dataset", "dbauthors", "dbauthors | bookcrossing | csv")
		n       = flag.Int("n", 1000, "synthetic user count")
		seed    = flag.Uint64("seed", 42, "generator seed")
		users   = flag.String("users", "", "users CSV (with -dataset csv)")
		actions = flag.String("actions", "", "actions CSV (with -dataset csv)")
		minSup  = flag.Float64("minsup", 0.02, "minimum group support fraction")
		k       = flag.Int("k", 7, "groups per display (paper: ≤7)")
		workers = flag.Int("workers", 0, "offline pipeline + snapshot-load workers (0 = NumCPU; any value builds a bit-identical engine)")
		snap    = flag.String("snapshot", "", "engine snapshot file for warm starts: loaded when its content address (hash of dataset + pipeline config) matches, rebuilt and overwritten when stale — a snapshot never silently serves outdated groups")
		script  = flag.String("script", "", "replay an action log (JSON array of actions, or a v2 saved session) instead of opening the REPL")
	)
	flag.Parse()

	// The flags name a dataset the way a server's catalog spec does, and
	// resolve through the same function, so the REPL mines exactly what
	// vexus-server would serve for them.
	spec := serve.DatasetSpec{Dataset: *which, N: *n, Seed: *seed, MinSup: *minSup, Users: *users, Actions: *actions}
	d, pcfg, err := spec.Resolve("", *workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("building groups over %d users …\n", d.NumUsers())
	start := time.Now()
	eng, warm, err := store.BuildOrLoad(*snap, d, pcfg)
	if eng == nil {
		log.Fatal(err)
	}
	if err != nil {
		fmt.Printf("warning: %v\n", err)
	}
	if warm {
		fmt.Printf("%d groups warm-loaded from %s in %v\n\n",
			eng.Space.Len(), *snap, time.Since(start).Round(1e6))
	} else {
		fmt.Printf("%d groups mined in %v\n\n",
			eng.Space.Len(), eng.Timings.Mine.Round(1e6))
	}

	gcfg := greedy.DefaultConfig()
	gcfg.K = *k
	if *script != "" {
		as, err := runScript(eng, gcfg, *script, os.Stdout)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nreplayed %d actions; final display:\n", len(as.Log))
		printGroups(as.Sess)
		return
	}
	as := action.New(eng, gcfg)
	if err := action.ApplyQuiet(as, action.Action{Op: action.Start}); err != nil {
		log.Fatal(err)
	}
	repl(as)
}
