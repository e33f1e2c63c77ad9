// Anticipate demonstrates the two Fig. 1 extensions: the Prefetcher
// (the paper's "VEXUS … uses [the explorer profile] to anticipate
// follow-up steps and select groups on-the-fly") and the SAVE module
// (a session's action log serializes as JSON and replays through
// action.Apply against a rebuilt engine). It measures the perceived
// latency of a click with and without anticipation, then saves,
// restores, and verifies the session.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/greedy"
)

func main() {
	data, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 1500, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	pcfg := core.DefaultPipelineConfig()
	pcfg.Encode = datagen.DBAuthorsEncodeOptions()
	pcfg.MinSupportFrac = 0.02
	eng, err := core.Build(data, pcfg)
	if err != nil {
		log.Fatal(err)
	}

	cfg := greedy.DefaultConfig() // 100 ms optimizer budget

	// --- Without anticipation: every click pays the optimizer. ------
	plain := eng.NewSession(cfg)
	plain.Start()
	t0 := time.Now()
	if _, err := plain.Explore(plain.Shown()[0]); err != nil {
		log.Fatal(err)
	}
	coldMS := time.Since(t0)

	// --- With anticipation: the answer was precomputed. -------------
	sess := eng.NewSession(cfg)
	sess.Start()
	p := core.NewPrefetcher(sess)
	p.PrefetchShown()
	p.Wait() // idle time while the human reads the display

	t0 = time.Now()
	_, cached, err := p.Explore(sess.Shown()[0])
	if err != nil {
		log.Fatal(err)
	}
	warmMS := time.Since(t0)
	fmt.Printf("click latency without anticipation: %8v\n", coldMS.Round(time.Millisecond))
	fmt.Printf("click latency with anticipation:    %8v (cache hit: %v)\n",
		warmMS.Round(time.Microsecond), cached)

	// --- SAVE: persist the action log, replay it elsewhere. ---------
	saved := action.New(eng, cfg)
	apply := func(a action.Action) {
		if _, err := action.Apply(saved, a); err != nil {
			log.Fatal(err)
		}
	}
	apply(action.Action{Op: action.Start})
	apply(action.Action{Op: action.Explore, Group: saved.Sess.Shown()[0]})
	apply(action.Action{Op: action.BookmarkGroup, Group: saved.Sess.Focal()})
	var buf bytes.Buffer
	if err := saved.Save(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsaved session: %d actions, %d bytes of JSON\n", len(saved.Log), buf.Len())

	restored := action.New(eng, cfg)
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored: %d history steps, focal %q, %d memo groups\n",
		len(restored.Sess.History()), eng.GroupLabel(restored.Sess.Focal()),
		len(restored.Sess.Memo().Groups()))
}
