// Save demonstrates the SAVE module of Fig. 1: a session's action log
// serializes as JSON and replays through action.Apply against the
// engine, restoring the session it was saved from.
package main

import (
	"bytes"
	"fmt"
	"log"

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
	fmt.Printf("saved session: %d actions, %d bytes of JSON\n", len(saved.Log), buf.Len())

	restored := action.New(eng, cfg)
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored: %d history steps, focal %q, %d memo groups\n",
		len(restored.Sess.History()), eng.GroupLabel(restored.Sess.Focal()),
		len(restored.Sess.Memo().Groups()))
}
