package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
// lineage entry ⇒ bit-identical engines everywhere (the core.Build /
// store.BuildOrLoad contract the equivalence tests pin).
//
// One gateway-wide mutex serializes ingests across datasets. Ingests
// are rare, slow (each one is a rebuild) administrative writes;
// serializing them keeps the seq ladder trivially gap-free without a
// distributed lock.

// handleIngest is POST /api/v1/datasets/{name}/ingest on the gateway:
// every batch is committed, on every shard. A query string is refused
// with 400 before any shard sees the batch, as each shard would.
func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	if serve.RejectIngestQuery(w, r) {
		return
	}
	name := r.PathValue("name")
	raw, ok := serve.ReadBody(w, r, serve.MaxIngestBody)
	if !ok {
		return
	}
	path := "/api/v1/datasets/" + url.PathEscape(name) + "/ingest"

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
		ir, err := decodeIngestReply(body, name, b.Seq)
		if err != nil {
			// Checked before the seq is pinned: a sequencer reply that
			// names no valid position reaches no other shard.
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
		// decodeIngestReply held the seq to the pinned one; the
		// version must agree too.
		if ir.EngineVersion != agg.EngineVersion {
			http.Error(w, fmt.Sprintf("cluster divergence: shard %s at version %d after seq %d, expected version %d",
				sh.name, ir.EngineVersion, ir.Seq, agg.EngineVersion), http.StatusBadGateway)
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

// decodeIngestReply decodes a shard's 200 reply to an ingest of the
// named dataset, strictly: unknown fields and anything after the
// object are refused, and so is a reply that cannot describe a commit
// of a batch sent with seq sent (0 = let the shard assign it). A seq
// is a position on the version ladder, so it is at least 1 and equals
// the one sent; a fresh commit of batch k lands on version k+1, and a
// replay (alreadyApplied) on a version past k.
func decodeIngestReply(raw []byte, name string, sent uint64) (serve.IngestResult, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var ir serve.IngestResult
	if err := dec.Decode(&ir); err != nil {
		return serve.IngestResult{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return serve.IngestResult{}, errors.New("data after the reply object")
	}
	switch {
	case ir.Dataset != name:
		return serve.IngestResult{}, fmt.Errorf("reply for dataset %q, want %q", ir.Dataset, name)
	case ir.Seq == 0:
		return serve.IngestResult{}, errors.New("reply seq 0")
	case sent != 0 && ir.Seq != sent:
		return serve.IngestResult{}, fmt.Errorf("reply seq %d, sent %d", ir.Seq, sent)
	case ir.AlreadyApplied && ir.EngineVersion <= ir.Seq:
		return serve.IngestResult{}, fmt.Errorf("replayed seq %d at engine version %d", ir.Seq, ir.EngineVersion)
	case !ir.AlreadyApplied && (ir.EngineVersion == 0 || ir.EngineVersion-1 != ir.Seq): // seq+1 could wrap
		return serve.IngestResult{}, fmt.Errorf("seq %d committed at engine version %d", ir.Seq, ir.EngineVersion)
	}
	return ir, nil
}
