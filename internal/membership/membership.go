// Package membership is what shards and gateways share about cluster
// membership: the wire types a heartbeat carries (Member) and its
// answer (Ack: the topology epoch), the roster row the gateway keeps
// per member (MemberInfo), the shard-side Announcer that sends those
// heartbeats, and the shared-secret auth helpers every
// /internal/cluster/* hop uses.
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
// identity and dial address. A heartbeat carries liveness only; the
// gateway reads each shard's sessions from the shard itself
// (GET /api/v1/cluster). Fields a heartbeat or a saved route table
// carries beyond these (older members sent "sessions" and "engines")
// are ignored.
type Member struct {
	Name string `json:"name"`
	Addr string `json:"addr,omitempty"`
	// Static marks members seeded from the -shards flag; they are
	// exempt from failure detection until their first heartbeat.
	Static bool `json:"static,omitempty"`
}

// MemberInfo is one roster row: the member plus its current state.
type MemberInfo struct {
	Member
	State State `json:"state"`
}

// Ack is a heartbeat response: the topology epoch, which the
// announcing shard learns in the same round trip that refreshed its
// own liveness.
type Ack struct {
	Epoch uint64 `json:"epoch"`
}
