package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"vexus/internal/core"
	"vexus/internal/serve"
)

// Ingest fan-out. Every shard builds the same engine from the same
// spec, so an ingested batch must reach every shard — in the same
// sequence position — for the cluster to keep serving one logical
// dataset. The gateway is the sequencer: it sends the batch to the
// shards in sorted name order, lets the first shard assign the seq
// (when the client did not), pins that seq on every other shard, and
// verifies all shards report the same resulting engine version. Batch
// digests are content addresses, so same batch + same seq ⇒ the same
// lineage entry ⇒ bit-identical engines everywhere (the store.LoadFile /
// core.Build contract the equivalence tests pin).
//
// One gateway-wide mutex serializes ingests across datasets. Ingests
// are rare, slow (each one is a rebuild) administrative writes;
// serializing them keeps the seq ladder trivially gap-free without a
// distributed lock.

// handleIngest is POST /api/v1/datasets/{name}/ingest on the gateway.
// ?preview=1 is read-only and proxies to one shard; a commit fans out
// to all of them.
func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	raw, ok := serve.ReadBody(w, r, serve.MaxIngestBody)
	if !ok {
		return
	}
	path := "/api/v1/datasets/" + url.PathEscape(name) + "/ingest"

	if r.URL.Query().Get("preview") == "1" {
		shards := g.shardList()
		if len(shards) == 0 {
			http.Error(w, "no shard available", http.StatusBadGateway)
			return
		}
		res, err := shards[0].send(context.Background(), shards[0].client, http.MethodPost, path+"?preview=1",
			traceHeader(r.Context(), http.Header{"Content-Type": {"application/json"}}), bytes.NewReader(raw))
		if err != nil {
			http.Error(w, "shard unreachable: "+err.Error(), http.StatusBadGateway)
			return
		}
		defer res.Body.Close()
		copyResponse(w, res)
		return
	}

	b, err := core.DecodeIngestJSON(raw)
	if err != nil {
		http.Error(w, "bad ingest batch: "+err.Error(), http.StatusBadRequest)
		return
	}

	g.ingestMu.Lock()
	defer g.ingestMu.Unlock()

	var agg serve.IngestResult
	for i, sh := range g.shardList() {
		payload, err := json.Marshal(b)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		res, err := sh.send(context.Background(), sh.client, http.MethodPost, path,
			traceHeader(r.Context(), http.Header{"Content-Type": {"application/json"}}), bytes.NewReader(payload))
		if err != nil {
			http.Error(w, fmt.Sprintf("shard %s unreachable: %v (retry with seq %d — replays are idempotent)",
				sh.name, err, b.Seq), http.StatusBadGateway)
			return
		}
		body, _ := io.ReadAll(io.LimitReader(res.Body, 64<<10))
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			if i == 0 {
				// The sequencer shard rejected the batch outright
				// (unknown dataset, seq conflict, validation): nothing
				// was applied anywhere — relay its verdict verbatim.
				w.WriteHeader(res.StatusCode)
				_, _ = w.Write(body)
				return
			}
			http.Error(w, fmt.Sprintf("shard %s rejected seq %d after %d shard(s) applied it: status %d: %s (retry with that seq to converge)",
				sh.name, b.Seq, i, res.StatusCode, body), http.StatusBadGateway)
			return
		}
		var ir serve.IngestResult
		if err := json.Unmarshal(body, &ir); err != nil {
			http.Error(w, fmt.Sprintf("shard %s: bad ingest response: %v", sh.name, err), http.StatusBadGateway)
			return
		}
		if i == 0 {
			// The first shard is the sequencer: whatever seq it assigned
			// (or confirmed) is pinned on every remaining shard, so all
			// of them fold the identical batch at the identical position.
			b.Seq = ir.Seq
			agg = ir
			continue
		}
		if ir.Seq != agg.Seq || ir.EngineVersion != agg.EngineVersion {
			http.Error(w, fmt.Sprintf("cluster divergence: shard %s at seq %d version %d, expected seq %d version %d",
				sh.name, ir.Seq, ir.EngineVersion, agg.Seq, agg.EngineVersion), http.StatusBadGateway)
			return
		}
		// Sessions live on different shards; the touched-session count
		// is the cluster-wide sum. AlreadyApplied only holds when every
		// shard had already seen the seq.
		agg.Notified += ir.Notified
		agg.AlreadyApplied = agg.AlreadyApplied && ir.AlreadyApplied
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(agg)
}
