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
	"vexus/internal/parallel"
	"vexus/internal/serve"
)

// Ingest fan-out. Every shard builds the same engine from the same
// spec, so an ingested batch must reach every shard — in the same
// sequence position — for the cluster to keep serving one logical
// dataset. The gateway is the sequencer: it pins one seq on every
// shard and verifies all shards report the same resulting engine
// version and chain head. Batch digests are content addresses, so same
// batch + same seq ⇒ the same lineage entry ⇒ bit-identical engines
// everywhere (the core.Build / store.BuildOrLoad contract the
// equivalence tests pin).
//
// When the gateway knows the seq, the batch goes to every shard at
// once, so an ingest costs one shard rebuild of wall time, not one per
// shard. It knows the seq when the client sent one, or from its hint
// (Gateway.nextSeq): the version every shard agreed on after its own
// last commit of the dataset. Without either, the first shard in
// sorted name order assigns the seq, and the rest then go together. A
// hint is only a guess — another writer may have moved the shards on —
// but every shard checks a pinned seq against its own version and
// lineage and refuses what it cannot take. When no shard takes a hint
// the client did not send, the gateway drops the hint and reruns the
// batch with the first shard assigning, in the same request, so a
// refusal of a guessed seq never reaches the client.
//
// A pinned seq has no single arbiter: when two writers (two gateways,
// or a client posting to shards directly) race different batches at
// one seq, shards may take different ones. Both ingests then answer
// 502, and since the shards' chain heads differ from then on, so does
// every later ingest ("cluster divergence") — the split is loud and
// permanent, never a silent 200. Send a dataset's ingests through one
// gateway; a split shard is drained and re-joined warm from a donor.
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
	b, err := core.DecodeIngestJSON(raw)
	if err != nil {
		http.Error(w, "bad ingest batch: "+err.Error(), http.StatusBadRequest)
		return
	}

	g.ingestMu.Lock()
	defer g.ingestMu.Unlock()
	hinted := b.Seq == 0 && g.nextSeq[name] != 0
	if hinted {
		b.Seq = g.nextSeq[name]
	}
	// Only a commit on every shard sets the hint again.
	delete(g.nextSeq, name)
	agg, ok := g.fanOutIngest(w, r, name, b, hinted)
	if !ok {
		return
	}
	g.nextSeq[name] = agg.EngineVersion
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(agg)
}

// fanOutIngest sends batch b to every shard and merges their replies
// into one result; hinted marks a seq taken from the gateway's hint,
// not from the client. It runs in phases split at the first shard: a
// batch with no seq goes to the first shard alone, which assigns one,
// and a batch with a seq goes to every remaining shard at once. On
// failure it has written the error response and reports false.
func (g *Gateway) fanOutIngest(w http.ResponseWriter, r *http.Request, name string, b core.IngestBatch, hinted bool) (serve.IngestResult, bool) {
	path := "/api/v1/datasets/" + url.PathEscape(name) + "/ingest"
	header := traceHeader(r.Context(), http.Header{"Content-Type": {"application/json"}})
	shards := g.shardList()
	var agg serve.IngestResult
	for lo := 0; lo < len(shards); {
		hi := len(shards)
		if b.Seq == 0 {
			hi = lo + 1
		}
		payload, err := json.Marshal(b)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return agg, false
		}
		outs := make([]ingestOutcome, hi-lo)
		parallel.ForEach(len(outs), len(outs), func(_, i int) {
			outs[i] = postIngest(shards[lo+i], path, header, payload)
		})
		// took counts the shards holding the batch. An unreachable
		// shard may hold it or not, so no verdict can be drawn.
		took := lo
		for i, o := range outs {
			if o.err != nil {
				http.Error(w, fmt.Sprintf("shard %s unreachable: %v (retry with seq %d — replays are idempotent)",
					shards[lo+i].name, o.err, b.Seq), http.StatusBadGateway)
				return agg, false
			}
			if o.status == http.StatusOK {
				took++
			}
		}
		if took == 0 {
			if hinted {
				// No shard took the guessed seq, so nothing was applied:
				// start over with the first shard assigning the seq.
				hinted, b.Seq = false, 0
				continue
			}
			// Rejected outright (unknown dataset, seq conflict,
			// validation): the first shard's verdict, relayed verbatim.
			w.WriteHeader(outs[0].status)
			_, _ = w.Write(outs[0].body)
			return agg, false
		}
		for i, o := range outs {
			sh := shards[lo+i]
			if o.status != http.StatusOK {
				advice := "retry with that seq to converge"
				if o.status == http.StatusConflict {
					advice = "its lineage disagrees: cluster divergence"
				}
				http.Error(w, fmt.Sprintf("shard %s rejected seq %d, which %d shard(s) applied: status %d: %s (%s)",
					sh.name, b.Seq, took, o.status, bytes.TrimSpace(o.body), advice), http.StatusBadGateway)
				return agg, false
			}
			ir, err := decodeIngestReply(o.body, name, b.Seq)
			if err != nil {
				// When the first shard assigns the seq, this check runs
				// before the seq is pinned: a reply that names no valid
				// position reaches no other shard.
				http.Error(w, fmt.Sprintf("shard %s: bad ingest response: %v", sh.name, err), http.StatusBadGateway)
				return agg, false
			}
			if lo+i == 0 {
				// The first shard's seq (assigned or confirmed) is the
				// one every other shard is pinned to.
				b.Seq = ir.Seq
				agg = ir
				continue
			}
			// decodeIngestReply held the seq to the pinned one; the
			// version and the chain head must agree too.
			if ir.EngineVersion != agg.EngineVersion || ir.Head != agg.Head {
				http.Error(w, fmt.Sprintf("cluster divergence: shard %s at version %d (head %q) after seq %d, reference shard %s at version %d (head %q)",
					sh.name, ir.EngineVersion, ir.Head, ir.Seq, shards[0].name, agg.EngineVersion, agg.Head), http.StatusBadGateway)
				return agg, false
			}
			// Sessions live on different shards; the touched-session
			// count is the cluster-wide sum. AlreadyApplied only holds
			// when every shard had already seen the seq.
			agg.Notified += ir.Notified
			agg.AlreadyApplied = agg.AlreadyApplied && ir.AlreadyApplied
		}
		lo = hi
	}
	return agg, true
}

// ingestOutcome is one shard's answer to an ingest POST: its status
// and body, or the transport error that kept it from answering.
type ingestOutcome struct {
	status int
	body   []byte
	err    error
}

// postIngest POSTs one marshaled batch to one shard. It does not
// follow the client's context: a shard that has the batch must answer,
// so the gateway can tell which shards hold it.
func postIngest(sh *Shard, path string, header http.Header, payload []byte) ingestOutcome {
	res, err := sh.send(context.Background(), sh.client, http.MethodPost, path, header, bytes.NewReader(payload))
	if err != nil {
		return ingestOutcome{err: err}
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(res.Body, 64<<10))
	return ingestOutcome{status: res.StatusCode, body: body}
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
