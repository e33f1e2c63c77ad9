package cluster

import "hash/fnv"

// Placement is rendezvous (highest-random-weight) hashing: every
// shard/session pair gets a deterministic 64-bit score and the session
// belongs to the highest-scoring shard. Two properties make it the
// right shape for session routing:
//
//   - Statelessness: any process that knows the shard names computes
//     the same owner for a sid — a gateway needs no routing table to
//     agree with its peers (the table it does keep is an optimization
//     and a migration latch, not the source of truth in steady state).
//   - Minimal disruption: removing a shard reassigns only the sessions
//     that lived on it, and adding one steals only the sessions it now
//     wins — exactly the set replay-based migration has to move.
func score(shard, sid string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(shard))
	_, _ = h.Write([]byte{0}) // separator: ("ab","c") ≠ ("a","bc")
	_, _ = h.Write([]byte(sid))
	return h.Sum64()
}

// Owner returns the rendezvous winner for sid among the given shard
// names ("" when names is empty). Ties — vanishingly rare with 64-bit
// scores, but determinism must not hinge on rarity — break toward the
// lexicographically smallest name.
func Owner(names []string, sid string) string {
	best := ""
	var bestScore uint64
	for _, n := range names {
		if s := score(n, sid); best == "" || outranks(n, s, best, bestScore) {
			best, bestScore = n, s
		}
	}
	return best
}

// outranks reports whether shard n, scoring s, beats the current best.
func outranks(n string, s uint64, best string, bestScore uint64) bool {
	return s > bestScore || (s == bestScore && n < best)
}
