package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/viz"
)

// repl drives an interactive exploration session over stdin/stdout.
// Every command that changes the session is one typed action through
// action.Apply, so the session's log is the trail of the commands.
func repl(as *action.Session) {
	sess := as.Sess
	eng := sess.Engine()
	apply := func(a action.Action) (action.Result, bool) {
		res, err := action.Apply(as, a)
		if err != nil {
			fmt.Println("error:", err)
			return res, false
		}
		return res, true
	}
	printGroups(sess)

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("vexus> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("vexus> ")
			continue
		}
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "quit", "exit", "q":
			return

		case "show":
			printGroups(sess)

		case "go":
			idx, ok := argIndex(args, len(sess.Shown()))
			if !ok {
				fmt.Println("usage: go <display-index>")
				break
			}
			gid := sess.Shown()[idx]
			t0 := time.Now()
			res, ok := apply(action.Action{Op: action.Explore, Group: gid})
			if !ok {
				break
			}
			fmt.Printf("explored %q — coverage %.2f, diversity %.2f in %v\n",
				eng.GroupLabel(gid), res.Metrics.Coverage, res.Metrics.Diversity, time.Since(t0).Round(1e5))
			printGroups(sess)

		case "focus":
			idx, ok := argIndex(args, len(sess.Shown()))
			if !ok {
				fmt.Println("usage: focus <display-index>")
				break
			}
			if _, ok := apply(action.Action{Op: action.Focus, Group: sess.Shown()[idx]}); ok {
				printStats(as.Focus)
			}

		case "brush":
			if as.Focus == nil || len(args) < 2 {
				fmt.Println("usage: focus <n> first, then brush <attr> <value…>")
				break
			}
			if _, ok := apply(action.Action{Op: action.Brush, Attr: args[0], Values: args[1:]}); ok {
				fmt.Printf("%d members selected\n", as.Focus.SelectedCount())
			}

		case "clear":
			if as.Focus == nil || len(args) < 1 {
				fmt.Println("usage: clear <attr>")
				break
			}
			apply(action.Action{Op: action.Brush, Attr: args[0]})

		case "table":
			if as.Focus == nil {
				fmt.Println("focus a group first")
				break
			}
			for _, row := range as.Focus.Table(15) {
				fmt.Printf("  %-14s %4d actions  %v\n", row.ID, row.NumAct, row.Demo)
			}

		case "context":
			for _, e := range sess.Context(10) {
				fmt.Printf("  %-40s %.3f\n", e.Label, e.Score)
			}

		case "unlearn":
			if len(args) != 1 || !strings.Contains(args[0], "=") {
				fmt.Println("usage: unlearn field=value")
				break
			}
			parts := strings.SplitN(args[0], "=", 2)
			apply(action.Action{Op: action.Unlearn, Field: parts[0], Value: parts[1]})

		case "history":
			for i, st := range sess.History() {
				label := "start"
				if st.Focal >= 0 {
					label = eng.GroupLabel(st.Focal)
				}
				fmt.Printf("  %d: %s\n", i, label)
			}

		case "back":
			idx, ok := argIndex(args, len(sess.History()))
			if !ok {
				fmt.Println("usage: back <history-index>")
				break
			}
			if _, ok := apply(action.Action{Op: action.Backtrack, Step: idx}); ok {
				printGroups(sess)
			}

		case "mark":
			idx, ok := argIndex(args, len(sess.Shown()))
			if !ok {
				fmt.Println("usage: mark <display-index>")
				break
			}
			apply(action.Action{Op: action.BookmarkGroup, Group: sess.Shown()[idx]})

		case "marku":
			if len(args) != 1 {
				fmt.Println("usage: marku <user-id>")
				break
			}
			apply(action.Action{Op: action.BookmarkUser, User: args[0]})

		case "memo":
			m := sess.Memo()
			for _, gid := range m.Groups() {
				fmt.Printf("  group: %s\n", eng.GroupLabel(gid))
			}
			for _, u := range m.Users() {
				fmt.Printf("  user:  %s\n", eng.Data.Users[u].ID)
			}

		case "help":
			fmt.Println("commands: show go focus brush clear table context unlearn history back mark marku memo quit")

		default:
			fmt.Printf("unknown command %q (try help)\n", cmd)
		}
		fmt.Print("vexus> ")
	}
}

func argIndex(args []string, n int) (int, bool) {
	if len(args) != 1 {
		return 0, false
	}
	idx, err := strconv.Atoi(args[0])
	if err != nil || idx < 0 || idx >= n {
		return 0, false
	}
	return idx, true
}

func printGroups(sess action.View) {
	eng := sess.Engine()
	rows := make([]viz.ASCIIGroupRow, 0, len(sess.Shown()))
	for _, gid := range sess.Shown() {
		rows = append(rows, viz.ASCIIGroupRow{
			Label:     eng.GroupLabel(gid),
			Size:      eng.Space.Group(gid).Size(),
			Highlight: gid == sess.Focal(),
		})
	}
	fmt.Print(viz.ASCIIGroups(rows, 24))
}

func printStats(fv *core.FocusView) {
	fmt.Printf("focused: %d members\n", len(fv.Members))
	for _, attr := range fv.Attributes() {
		labels, counts, err := fv.Histogram(attr)
		if err != nil {
			continue
		}
		fmt.Print(viz.ASCIIHistogram(attr, labels, counts, 30))
	}
	if fv.Projection != nil {
		fmt.Printf("focus view: %s projection, %.0f%% mass on 2 axes\n",
			fv.Projection.Method, fv.Projection.ExplainedRatio*100)
	}
}
