// Streaming demonstrates the paper's stream path (§II-A): when user
// data arrives as a stream rather than a dataset, group discovery runs
// with STREAMMINING (lossy counting over itemsets) instead of LCM —
// the miner behind Engine.IngestPreview. The example replays a rating
// stream in three eras with drifting taste and reports how the
// frequent groups move, plus the bounded memory the stream miner
// maintains.
package main

import (
	"fmt"
	"log"

	"vexus/internal/datagen"
	"vexus/internal/groups"
	"vexus/internal/mining"
	"vexus/internal/mining/stream"
)

func main() {
	data, err := datagen.BookCrossing(datagen.SmallScale(21))
	if err != nil {
		log.Fatal(err)
	}
	tx, err := mining.Encode(data, datagen.BookCrossingEncodeOptions())
	if err != nil {
		log.Fatal(err)
	}

	// --- STREAMMINING: process users as an arriving stream. ---------
	m := stream.New(stream.Config{Support: 0.05, Epsilon: 0.005, MaxLen: 2})
	checkpoints := []int{tx.N / 3, 2 * tx.N / 3, tx.N}
	next := 0
	for u := 0; u < tx.N; u++ {
		m.Process(append([]groups.TermID(nil), tx.PerUser[u]...))
		if next < len(checkpoints) && u+1 == checkpoints[next] {
			snap := m.Snapshot()
			fmt.Printf("after %5d users: %3d frequent groups, %5d counters in core\n",
				u+1, len(snap), m.NumCounters())
			for i, fi := range snap {
				if i == 3 {
					break
				}
				fmt.Printf("    %-55s ≥%d users\n", fi.Terms.Label(tx.Vocab), fi.Count)
			}
			next++
		}
	}
}
