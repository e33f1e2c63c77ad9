package membership

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"time"

	"vexus/internal/telemetry"
)

// Announcer is the shard side of the liveness loop: it POSTs this
// member's heartbeat to each configured gateway every Every and reads
// back the ack — the topology epoch, which the shard logs when it
// changes.
type Announcer struct {
	// Self identifies this member; Name must match the name the
	// gateway admitted it under (for -shards deployments, the address).
	Self Member
	// Gateways are gateway base URLs ("http://host:port").
	Gateways []string
	// Secret is the shared cluster secret ("" = none configured).
	Secret string
	// Every paces the loop (0 = 2s).
	Every time.Duration
	// RTT observes each successful heartbeat's round-trip time —
	// registered on the shard's own registry, so the gateway's cluster
	// rollup aggregates it across members (nil = not recorded).
	RTT *telemetry.Histogram
	// Logger receives beat records at Debug and failures at Warn
	// (nil = slog.Default()).
	Logger *slog.Logger
}

// Run drives the heartbeat loop until ctx is cancelled. The first
// beat fires immediately, so a freshly started shard is visible to
// the gateway within one round trip, not one interval.
func (a *Announcer) Run(ctx context.Context) {
	every := a.Every
	if every <= 0 {
		every = 2 * time.Second
	}
	log := a.Logger
	if log == nil {
		log = slog.Default()
	}
	client := &http.Client{Timeout: 5 * time.Second}
	t := time.NewTicker(every)
	defer t.Stop()
	body, err := json.Marshal(a.Self)
	if err != nil {
		log.Warn("membership: encoding heartbeat", "err", err)
		return
	}
	var lastEpoch uint64
	for {
		for _, gw := range a.Gateways {
			ack, err := a.beat(ctx, client, gw, body)
			if err != nil {
				log.Warn("membership: heartbeat failed", "gateway", gw, "err", err)
				continue
			}
			if ack.Epoch != lastEpoch {
				log.Info("membership: topology epoch changed", "gateway", gw, "epoch", ack.Epoch)
				lastEpoch = ack.Epoch
			}
			log.Debug("membership: heartbeat acked", "gateway", gw, "epoch", ack.Epoch)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// beat sends one heartbeat to one gateway and decodes the ack. A
// non-200 is an error: in particular a gateway that does not know
// this member answers 404 — the shard is running but not yet joined,
// which the operator resolves with POST /api/v1/cluster/join.
func (a *Announcer) beat(ctx context.Context, client *http.Client, gw string, body []byte) (Ack, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, gw+"/internal/cluster/heartbeat", bytes.NewReader(body))
	if err != nil {
		return Ack{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if a.Secret != "" {
		req.Header.Set(SecretHeader, a.Secret)
	}
	started := time.Now()
	res, err := client.Do(req)
	if err != nil {
		return Ack{}, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 256))
		return Ack{}, &HeartbeatError{Status: res.StatusCode, Body: string(msg)}
	}
	var ack Ack
	if err := json.NewDecoder(res.Body).Decode(&ack); err != nil {
		return Ack{}, err
	}
	if a.RTT != nil {
		a.RTT.Observe(time.Since(started).Seconds())
	}
	return ack, nil
}

// HeartbeatError is a non-200 heartbeat response.
type HeartbeatError struct {
	Status int
	Body   string
}

func (e *HeartbeatError) Error() string {
	return "heartbeat rejected: status " + http.StatusText(e.Status) + ": " + e.Body
}
