package store

import "vexus/internal/core"

// This file is the verifying half of warm joins (internal/cluster): a
// current member serves its engine through Save over HTTP, and the
// joining shard reads the stream into memory (internal/serve's warm
// handler) and verifies and decodes it with LoadFreshBytes before it
// is allowed anywhere near the hash ring. Save already streams — it
// writes header + CRC-framed sections to any io.Writer — so the donor
// side needs nothing new; what a *network* consumer needs that the
// file paths don't is freshness verification over bytes that never
// touch disk.

// LoadFreshBytes reassembles the engine from an in-memory snapshot
// only if the snapshot's header fingerprint equals the chain of the
// given *base* fingerprint and the lineage the snapshot itself records
// — the same freshness rule as LoadFileFresh, applied to bytes that
// arrived over a transport instead of from a file. Anything less — a
// truncated transfer, a stream for a different dataset or pipeline
// config, a corrupt section — returns an error (ErrStale for
// fingerprint mismatches) and no engine: the caller fails closed.
func LoadFreshBytes(data []byte, fp Fingerprint, workers int) (*core.Engine, error) {
	eng, _, err := loadFreshBytes(data, fp, workers)
	return eng, err
}
