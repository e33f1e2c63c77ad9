// Package membership is what shards and gateways share about cluster
// membership: the wire types a heartbeat carries (Member) and its
// answer (Ack: the topology epoch plus every member's MemberInfo and
// State), the shard-side Announcer that sends those heartbeats, and
// the shared-secret auth helpers every /internal/cluster/* hop uses.
//
// The gateway side — the one roster of members, their liveness, the
// epoch and the durable route table — lives in internal/cluster, the
// only package that keeps one. Its states are the ones below: a member
// unheard-of past the suspect horizon is suspected but still routable,
// and past the down horizon leaves the routing set until it heartbeats
// again.
package membership

// State is a member's liveness as the gateway sees it.
type State string

const (
	// StateAlive: heartbeating (or static and never required to).
	StateAlive State = "alive"
	// StateSuspect: unheard-of past SuspectAfter; still routable.
	StateSuspect State = "suspect"
	// StateDown: unheard-of past DownAfter; out of the routing set.
	StateDown State = "down"
)

// Member is what a shard announces about itself: its rendezvous-hash
// identity, dial address, and gossip metadata. The metadata rides the
// roster so every ack paints the whole cluster, but only Name and Addr
// affect routing.
type Member struct {
	Name string `json:"name"`
	Addr string `json:"addr,omitempty"`
	// Static marks members seeded from the -shards flag; they are
	// exempt from failure detection until their first heartbeat.
	Static bool `json:"static,omitempty"`
	// Sessions and Engines are gossip metadata: live session count and
	// per-dataset engine versions at the last heartbeat.
	Sessions int               `json:"sessions,omitempty"`
	Engines  map[string]uint64 `json:"engines,omitempty"`
}

// MemberInfo is one roster row: the member plus its current state.
type MemberInfo struct {
	Member
	State State `json:"state"`
}

// Ack is a heartbeat response: the gossip piggyback. The announcing
// shard learns the topology epoch and the full roster in the same
// round trip that refreshed its own liveness.
type Ack struct {
	Epoch   uint64       `json:"epoch"`
	Members []MemberInfo `json:"members"`
}
