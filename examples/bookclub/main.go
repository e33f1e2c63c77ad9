// Bookclub reproduces Scenario 2 of the paper (§III, single-target
// task): an avid reader explores BookCrossing-style rating groups
// looking for a discussion group — one she agrees with (readers who
// like her favorite genre) and one she disagrees with. The paper cites
// 80% satisfaction for group-based exploration versus individual
// browsing; this example runs both conditions side by side.
package main

import (
	"fmt"
	"log"

	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/greedy"
	"vexus/internal/simulate"
)

func main() {
	data, err := datagen.BookCrossing(datagen.SmallScale(13))
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.BookCrossingEncodeOptions()
	cfg.MinSupportFrac = 0.02
	eng, err := core.Build(data, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline: %d groups over %d readers, %d ratings\n\n",
		eng.Space.Len(), data.NumUsers(), data.NumActions())

	// The reader's target: a *specific* discussion group — fiction
	// lovers sharing another trait (so it is never in the initial
	// display and must be navigated to).
	targetID := -1
	want := eng.Space.Vocab.Lookup("favgenre", "fiction")
	bestSize := 0
	for _, g := range eng.Space.Groups() {
		if g.Desc.Contains(want) && len(g.Desc) >= 2 && g.Size() > bestSize {
			targetID, bestSize = g.ID, g.Size()
		}
	}
	if targetID < 0 {
		log.Fatal("no specific fiction group mined; lower the support threshold")
	}
	fmt.Printf("hidden target: %q (%d readers)\n\n", eng.GroupLabel(targetID), bestSize)

	task := simulate.STTask{TargetGroup: targetID, MinSimilarity: 0.6, MaxIterations: 15}

	groupBased := simulate.RunSTBatchParallel(eng, greedy.DefaultConfig(), task,
		simulate.NoisyPolicy(0.1), 25, 500, 0)
	fmt.Printf("group-based exploration:  %3.0f%% satisfied, %.1f iterations when satisfied\n",
		groupBased.SuccessRate*100, groupBased.MeanIterations)

	// Baseline: browsing individual profiles, needing enough agreeing
	// readers to convince her a club exists (quota scales with the
	// club size).
	target := eng.Space.Group(targetID).Members
	quota := target.Count() / 10
	if quota < 15 {
		quota = 15
	}
	browse := simulate.RunBrowseBatchParallel(data.NumUsers(), target,
		quota, 7, 15, 25, 500, 0)
	fmt.Printf("individual browsing:      %3.0f%% satisfied (baseline, quota %d)\n\n",
		browse.SuccessRate*100, quota)

	// One concrete session: show the agree/disagree pair the scenario
	// describes.
	sess := eng.NewSession(greedy.DefaultConfig())
	sess.Start()
	if _, err := sess.Explore(targetID); err != nil {
		log.Fatal(err)
	}
	fmt.Println("groups adjacent to the reader's taste:")
	fictionIdx := 0
	for i, g := range datagen.Genres {
		if g == "fiction" {
			fictionIdx = i
		}
	}
	for i, v := range sess.Views("favgenre") {
		verdict := "disagrees" // gender-neutral or other-genre groups
		if len(v.ColorShares) > fictionIdx && v.ColorShares[fictionIdx] >= 0.5 {
			verdict = "agrees"
		}
		fmt.Printf("  %d. [%4d readers, sim %.2f, %s] %s\n",
			i+1, v.Size, v.Similarity, verdict, v.Label)
	}
}
