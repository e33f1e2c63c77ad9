package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"

	"vexus/internal/membership"
	"vexus/internal/serve"
)

// The ops surface: cross-shard aggregation for the two occupancy
// endpoints the single-node server already had (so dashboards work
// unchanged against a gateway), plus the cluster's own status and
// topology endpoints.

// occupancyDTO mirrors the single-node GET /api/sessions body, with a
// per-shard breakdown added. Counts are summed across shards; a
// session lives on exactly one shard, so the sum never double-counts.
type occupancyDTO struct {
	Sessions   int            `json:"sessions"`
	PerDataset map[string]int `json:"perDataset"`
	PerShard   map[string]int `json:"perShard"`
}

// handleSessions aggregates occupancy: each shard reports its own
// sessions, the gateway sums. Unreachable shards contribute nothing
// here (their absence is visible on /api/v1/cluster); the ops view
// should degrade, not 502.
func (g *Gateway) handleSessions(w http.ResponseWriter, _ *http.Request) {
	out := occupancyDTO{PerDataset: map[string]int{}, PerShard: map[string]int{}}
	for _, sh := range g.shardList() {
		list, err := sh.sessions()
		if err != nil {
			continue
		}
		out.PerShard[sh.name] = len(list)
		out.Sessions += len(list)
		for _, info := range list {
			out.PerDataset[info.Dataset]++
		}
	}
	// Datasets with zero sessions anywhere still appear, like the
	// single-node endpoint. Every shard serves the same catalog specs,
	// so the name set comes from the first reachable shard — one extra
	// call, not another full fan-out.
	for _, sh := range g.shardList() {
		var body datasetsDTO
		if err := sh.getJSON("/api/datasets", nil, &body); err != nil {
			continue
		}
		for _, row := range body.Datasets {
			if _, ok := out.PerDataset[row.Name]; !ok {
				out.PerDataset[row.Name] = 0
			}
		}
		break
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// datasetsDTO mirrors the single-node GET /api/datasets body.
type datasetsDTO struct {
	Default  string                `json:"default"`
	Datasets []serve.DatasetStatus `json:"datasets"`
}

// handleDatasets merges the per-shard catalog listings by dataset
// name: resident anywhere is resident, session counts sum, and
// shape metadata (groups/users) comes from whichever shard has the
// engine resident. One dataset, one row — however many shards serve
// it — so the clustered listing never double-counts a dataset.
func (g *Gateway) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(g.mergedDatasets())
}

func (g *Gateway) mergedDatasets() datasetsDTO {
	out := datasetsDTO{}
	byName := map[string]*serve.DatasetStatus{}
	for _, sh := range g.shardList() {
		var body datasetsDTO
		if err := sh.getJSON("/api/datasets", nil, &body); err != nil {
			continue
		}
		if out.Default == "" {
			out.Default = body.Default
		}
		for _, row := range body.Datasets {
			m := byName[row.Name]
			if m == nil {
				r := row
				byName[row.Name] = &r
				continue
			}
			m.Sessions += row.Sessions
			if row.Resident && !m.Resident {
				m.Resident = true
				m.Warm = row.Warm
				m.Groups, m.Users = row.Groups, row.Users
			}
			// Shards converge on one version per dataset. An ingest
			// reaches the shards concurrently and each swaps its
			// engine when its own rebuild ends, so while one is in
			// flight the merged row reports the furthest shard.
			if row.Version > m.Version {
				m.Version = row.Version
			}
			if row.Error != "" && m.Error == "" {
				m.Error = row.Error
			}
		}
	}
	for _, row := range byName {
		out.Datasets = append(out.Datasets, *row)
	}
	sort.Slice(out.Datasets, func(i, j int) bool { return out.Datasets[i].Name < out.Datasets[j].Name })
	return out
}

// ShardStatus is one row of GET /api/v1/cluster: health and residency
// of one shard.
type ShardStatus struct {
	Name     string `json:"name"`
	Addr     string `json:"addr,omitempty"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
	// State is the membership verdict (alive/suspect/down) — gossip's
	// view, vs. Healthy which is this poll's direct observation.
	State      string         `json:"state,omitempty"`
	Sessions   int            `json:"sessions"`
	PerDataset map[string]int `json:"perDataset,omitempty"`
	Error      string         `json:"error,omitempty"`
}

// Status is the GET /api/v1/cluster body.
type Status struct {
	// Epoch is the topology epoch: the version of the routing set. Two
	// gateways at the same epoch route every session id identically.
	Epoch  uint64        `json:"epoch"`
	Shards []ShardStatus `json:"shards"`
	// Members is the membership roster with liveness states — including
	// members that currently have no dialable client.
	Members  []membership.MemberInfo `json:"members,omitempty"`
	Sessions int                     `json:"sessions"`
	// Metrics is the cluster-wide rollup: every reachable shard's
	// metric snapshot summed series-by-series (histogram bucket series
	// omitted — _sum/_count carry the aggregate). Absent when no shard
	// exposes the shard API.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Status polls every shard's residency listing and assembles the
// cluster health view.
func (g *Gateway) Status() Status {
	var st Status
	st.Epoch = g.roster.Epoch()
	for _, m := range g.roster.snapshot() {
		st.Members = append(st.Members, m.MemberInfo)
		sh := m.shard
		if sh == nil {
			continue
		}
		row := ShardStatus{Name: sh.name, Addr: sh.addr, Draining: m.draining, State: string(m.State)}
		list, err := sh.sessions()
		if err != nil {
			row.Error = err.Error()
		} else {
			row.Healthy = true
			row.Sessions = len(list)
			if len(list) > 0 {
				row.PerDataset = map[string]int{}
				for _, info := range list {
					row.PerDataset[info.Dataset]++
				}
			}
			st.Sessions += len(list)
		}
		st.Shards = append(st.Shards, row)
	}
	st.Metrics = g.metricsRollup()
	return st
}

func (g *Gateway) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(g.Status())
}

// drainDTO is the POST /api/v1/cluster/drain and /join response.
type drainDTO struct {
	Shard  string   `json:"shard"`
	Moved  int      `json:"moved"`
	Shards []string `json:"shards"`
}

// handleDrain is POST /api/v1/cluster/drain?shard=<name>: migrate
// every session off the shard and remove it from routing.
func (g *Gateway) handleDrain(w http.ResponseWriter, r *http.Request) {
	name := r.FormValue("shard")
	if name == "" {
		http.Error(w, "missing shard parameter", http.StatusBadRequest)
		return
	}
	moved, err := g.Drain(name)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, errUnknownShard) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(drainDTO{Shard: name, Moved: moved, Shards: g.Shards()})
}

// handleJoin is POST /api/v1/cluster/join?shard=<name>&addr=<host:port>:
// add a remote shard and rebalance onto it.
func (g *Gateway) handleJoin(w http.ResponseWriter, r *http.Request) {
	name, addr := r.FormValue("shard"), r.FormValue("addr")
	if name == "" || addr == "" {
		http.Error(w, "missing shard or addr parameter", http.StatusBadRequest)
		return
	}
	moved, err := g.Join(RemoteShard(name, addr))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(drainDTO{Shard: name, Moved: moved, Shards: g.Shards()})
}

// handleRemove is POST /api/v1/cluster/remove?shard=<name>: force-drop
// a dead shard from routing, abandoning its sessions. The recovery
// path when Drain cannot reach the member; see Gateway.Remove.
func (g *Gateway) handleRemove(w http.ResponseWriter, r *http.Request) {
	name := r.FormValue("shard")
	if name == "" {
		http.Error(w, "missing shard parameter", http.StatusBadRequest)
		return
	}
	dropped, err := g.Remove(name)
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, errUnknownShard) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(drainDTO{Shard: name, Moved: dropped, Shards: g.Shards()})
}

// shardList snapshots every member's client (down members' included),
// sorted by name for deterministic aggregation order.
func (g *Gateway) shardList() []*Shard {
	var out []*Shard
	for _, m := range g.roster.snapshot() {
		if m.shard != nil {
			out = append(out, m.shard)
		}
	}
	return out
}
