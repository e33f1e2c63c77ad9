// Focusview regenerates the visual panels of Fig. 2 as SVG files: the
// GROUPVIZ force layout with size/color-coded circles (groupviz.svg),
// a STATS histogram with a brush (stats.svg), the LDA Focus-view
// scatter (focus.svg) and the HISTORY trail (history.svg). It also
// exercises the §II-B granular-analysis anecdote: focus on a group,
// brush gender=female and extreme activity, and print the resulting
// member table.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/greedy"
	"vexus/internal/viz"
)

func main() {
	data, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 500, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.DBAuthorsEncodeOptions()
	cfg.MinSupportFrac = 0.03
	eng, err := core.Build(data, cfg)
	if err != nil {
		log.Fatal(err)
	}

	as := action.New(eng, greedy.DefaultConfig())
	apply := func(a action.Action) {
		if err := action.ApplyQuiet(as, a); err != nil {
			log.Fatal(err)
		}
	}
	apply(action.Action{Op: action.Start})
	// Focus on a mixed-gender group (one whose description does not
	// pin gender), so the gender brush below has members on both sides.
	shown := as.Sess.Shown()
	pick := shown[0]
	for _, gid := range shown {
		if !strings.Contains(eng.GroupLabel(gid), "gender=") {
			pick = gid
			break
		}
	}
	apply(action.Action{Op: action.Explore, Group: pick})

	// --- GROUPVIZ: force layout + pies colored by gender. -----------
	views := as.Sess.Views("gender")
	maxSize := 0
	for _, v := range views {
		if v.Size > maxSize {
			maxSize = v.Size
		}
	}
	nodes := make([]viz.Node, len(views))
	for i, v := range views {
		nodes[i] = viz.Node{ID: v.ID, Radius: viz.RadiusForSize(v.Size, maxSize)}
	}
	var edges []viz.Edge
	for i := range views {
		for j := i + 1; j < len(views); j++ {
			sim := eng.Space.Group(views[i].ID).Jaccard(eng.Space.Group(views[j].ID))
			if sim > 0 {
				edges = append(edges, viz.Edge{A: i, B: j, Strength: sim})
			}
		}
	}
	placed := viz.Layout(nodes, edges, viz.DefaultLayoutConfig())
	circles := make([]viz.Circle, len(placed))
	for i, n := range placed {
		circles[i] = viz.Circle{
			X: n.X, Y: n.Y, R: n.Radius,
			Label:  views[i].Label,
			Title:  fmt.Sprintf("%d", views[i].Size),
			Shares: views[i].ColorShares,
		}
	}
	write("groupviz.svg", viz.GroupVizSVG(circles, 720, 480))

	// --- STATS + Focus view on the focal group. ----------------------
	apply(action.Action{Op: action.Focus, Group: pick, Class: "topic"})
	apply(action.Action{Op: action.Brush, Attr: "gender", Values: []string{"female"}})
	fv := as.Focus
	labels, counts, err := fv.Histogram("gender")
	if err != nil {
		log.Fatal(err)
	}
	write("stats.svg", viz.HistogramSVG("gender (brush: female)", labels, counts,
		map[int]bool{0: true}, 360))

	if fv.Projection != nil {
		points := make([]viz.ScatterPoint, len(fv.Projection.Points))
		classIdx := eng.Data.Schema.AttrIndex(fv.ClassAttr)
		for i, p := range fv.Projection.Points {
			u := fv.Members[i]
			cls := eng.Data.Users[u].Demo[classIdx]
			points[i] = viz.ScatterPoint{
				X: p[0], Y: p[1], Class: cls,
				Label: eng.Data.Users[u].ID,
			}
		}
		write("focus.svg", viz.ScatterSVG(points, 420, 320))
		fmt.Printf("focus projection: method=%s explained=%.2f\n",
			fv.Projection.Method, fv.Projection.ExplainedRatio)
	}

	// --- HISTORY trail. ----------------------------------------------
	var trail []string
	for _, st := range as.Sess.History() {
		if st.Focal < 0 {
			trail = append(trail, "start")
			continue
		}
		trail = append(trail, eng.GroupLabel(st.Focal))
	}
	write("history.svg", viz.TrailSVG(trail, 720))

	// --- The member table after brushing (§II-B anecdote). ----------
	fmt.Printf("\nselected members (female, most active first) of %q:\n",
		eng.GroupLabel(fv.GroupID))
	for _, row := range fv.Table(5) {
		fmt.Printf("  %-12s %3d actions  %v\n", row.ID, row.NumAct, row.Demo)
	}
}

func write(name, svg string) {
	if err := os.WriteFile(name, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", name, len(svg))
}
