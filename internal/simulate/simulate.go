// Package simulate drives VEXUS sessions with goal-directed synthetic
// explorers, standing in for the human studies behind the paper's
// Scenario claims (§III): expert-set formation finishing in under 10
// iterations on average (multi-target tasks, E4), 80% satisfaction on
// group-based discussion-group search versus individual browsing
// (single-target tasks, E5), the k ≤ 7 perception bound (E6) and the
// feedback-learning ablation (E8). Explorers interact exclusively
// through internal/action.Apply — the same dispatcher behind the HTTP
// API, the CLI replay and session persistence — so the loop being
// measured is exactly the deployed one, and every run emits its trail
// as an action log (MTResult.Actions / STResult.Actions) that replays
// verbatim through any other frontend.
package simulate

import (
	"vexus/internal/action"
	"vexus/internal/bitset"
	"vexus/internal/rng"
)

// Policy picks which displayed group to click next. score is the
// explorer's (task-specific) estimate of a group's usefulness; higher
// is better.
type Policy struct {
	// Name identifies the policy in reports.
	Name string
	// Noise is the probability of clicking a uniformly random shown
	// group instead of the argmax — human imprecision.
	Noise float64
}

// GreedyPolicy clicks the best-looking group every time.
func GreedyPolicy() Policy { return Policy{Name: "greedy"} }

// NoisyPolicy clicks randomly with probability noise.
func NoisyPolicy(noise float64) Policy { return Policy{Name: "noisy", Noise: noise} }

// choose applies the policy to scored candidates; ties break to the
// earliest (display order).
func (p Policy) choose(r *rng.RNG, shown []int, score func(gid int) float64) int {
	if len(shown) == 0 {
		return -1
	}
	if p.Noise > 0 && r.Bool(p.Noise) {
		return shown[r.Intn(len(shown))]
	}
	best, bestScore := shown[0], score(shown[0])
	for _, gid := range shown[1:] {
		if s := score(gid); s > bestScore {
			best, bestScore = gid, s
		}
	}
	return best
}

// MTTask is a multi-target task (Scenario 1): collect Quota users from
// Target into MEMO within MaxIterations exploration steps.
type MTTask struct {
	Target        *bitset.Set
	Quota         int
	MaxIterations int
	// MaxInspectPerStep caps how many members the explorer can
	// recognize and bookmark per visited group (0 = unlimited). Human
	// chairs read a bounded member table, not hundreds of profiles;
	// this is what makes committee formation take several iterations
	// rather than one lucky click.
	MaxInspectPerStep int
}

// MTResult reports one run.
type MTResult struct {
	Success    bool
	Iterations int
	Collected  int
	// CollectedTrace[i] is the collection size after step i.
	CollectedTrace []int
	// Actions is the run's trail in the shared action vocabulary —
	// replayable through the server, the CLI or Session.Load.
	Actions []action.Action
}

// RunMT simulates an expert-set formation session: at each step the
// explorer clicks the shown group containing the most not-yet-collected
// target users (subject to policy noise), then "recognizes" and
// bookmarks the target members of the clicked group — the paper's
// granular analysis step, where the chair inspects the group's member
// table and picks the wanted people. as is a fresh session
// (action.New); the run starts it, and MTResult.Actions is its log.
func RunMT(as *action.Session, task MTTask, policy Policy, r *rng.RNG) MTResult {
	res := MTResult{}
	eng := as.Sess.Engine()
	space := eng.Space
	collected := bitset.New(task.Target.Len())

	_ = action.ApplyQuiet(as, action.Action{Op: action.Start})
	bookmark := func(gid int) {
		g := space.Group(gid)
		budget := task.MaxInspectPerStep
		g.Members.Range(func(u int) bool {
			if task.Target.Contains(u) && !collected.Contains(u) {
				collected.Add(u)
				_ = action.ApplyQuiet(as, action.Action{
					Op: action.BookmarkUser, User: eng.Data.Users[u].ID,
				})
				if budget > 0 {
					budget--
					if budget == 0 {
						return false
					}
				}
			}
			return true
		})
	}

	for it := 1; it <= task.MaxIterations; it++ {
		shown := as.Sess.Shown()
		if len(shown) == 0 {
			break
		}
		pick := policy.choose(r, shown, func(gid int) float64 {
			g := space.Group(gid)
			return float64(g.Members.IntersectCount(task.Target)) -
				float64(g.Members.IntersectCount(collected))
		})
		if pick < 0 {
			break
		}
		if err := action.ApplyQuiet(as, action.Action{Op: action.Explore, Group: pick}); err != nil {
			break
		}
		bookmark(pick)
		res.Iterations = it
		res.CollectedTrace = append(res.CollectedTrace, collected.Count())
		if collected.Count() >= task.Quota {
			res.Success = true
			break
		}
	}
	res.Collected = collected.Count()
	res.Actions = as.Log
	return res
}

// STTask is a single-target task (Scenario 2): reach a satisfying
// group within MaxIterations steps. TargetGroup is the explorer's
// compass — the community she would ideally join — used both to score
// shown groups and, when Satisfied is nil, to test success (reaching a
// group at least MinSimilarity-similar to it). A non-nil Satisfied
// overrides the success test: the paper's book-club seeker is happy
// with *any* group she agrees with, not only the one closest overall.
type STTask struct {
	TargetGroup   int
	MinSimilarity float64
	MaxIterations int
	Satisfied     func(gid int) bool
}

// STResult reports one run.
type STResult struct {
	Success    bool
	Iterations int
	// BestSimilarity is the closest the explorer got to the target.
	BestSimilarity float64
	// Actions is the run's trail in the shared action vocabulary
	// (empty for the individual-browsing baseline, which never touches
	// a session).
	Actions []action.Action
}

// RunST simulates the book-club seeker: the explorer cannot name the
// target group but recognizes affinity when seeing a group's members
// and statistics, modeled as clicking the shown group most similar to
// the target (with policy noise). Success is reaching a group within
// MinSimilarity of the target. as is a fresh session, as for RunMT.
func RunST(as *action.Session, task STTask, policy Policy, r *rng.RNG) STResult {
	res := STResult{}
	space := as.Sess.Engine().Space
	target := space.Group(task.TargetGroup)

	satisfied := task.Satisfied
	if satisfied == nil {
		satisfied = func(gid int) bool {
			return gid == task.TargetGroup ||
				space.Group(gid).Jaccard(target) >= task.MinSimilarity
		}
	}

	_ = action.ApplyQuiet(as, action.Action{Op: action.Start})
	for it := 1; it <= task.MaxIterations; it++ {
		shown := as.Sess.Shown()
		if len(shown) == 0 {
			break
		}
		pick := policy.choose(r, shown, func(gid int) float64 {
			return space.Group(gid).Jaccard(target)
		})
		if pick < 0 {
			break
		}
		if sim := space.Group(pick).Jaccard(target); sim > res.BestSimilarity {
			res.BestSimilarity = sim
		}
		res.Iterations = it
		if satisfied(pick) {
			res.Success = true
			_ = action.ApplyQuiet(as, action.Action{Op: action.BookmarkGroup, Group: pick})
			break
		}
		if err := action.ApplyQuiet(as, action.Action{Op: action.Explore, Group: pick}); err != nil {
			break
		}
	}
	res.Actions = as.Log
	return res
}

// BrowseIndividuals is the E5 baseline: no groups, the seeker samples
// perIteration users per iteration and succeeds upon accumulating
// quota members of the target group — the "individuals" condition of
// the user study in [5], which the paper reports far lower
// satisfaction for.
func BrowseIndividuals(numUsers int, target *bitset.Set, quota, perIteration, maxIterations int, r *rng.RNG) STResult {
	res := STResult{}
	found := 0
	for it := 1; it <= maxIterations; it++ {
		res.Iterations = it
		for i := 0; i < perIteration; i++ {
			u := r.Intn(numUsers)
			if target.Contains(u) {
				found++
			}
		}
		if found >= quota {
			res.Success = true
			break
		}
	}
	if target.Count() > 0 {
		res.BestSimilarity = float64(found) / float64(target.Count())
	}
	return res
}
