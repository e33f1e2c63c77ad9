package store

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	"vexus/internal/core"
	"vexus/internal/dataset"
)

// Fingerprint is the snapshot content address: a SHA-256 over the full
// dataset content (schema, users, items, actions) and every
// result-affecting field of the pipeline configuration. Two builds
// share a fingerprint exactly when core.Build would produce
// bit-identical engines for them, so a header match makes a snapshot
// safe to serve and a mismatch forces a rebuild.
//
// PipelineConfig.Workers is deliberately excluded: any worker count
// yields a bit-identical engine (the internal/parallel slot-write
// contract), so a snapshot built with 8 workers warm-starts a 1-worker
// deployment. PipelineConfig.IndexFraction is excluded for the same
// reason: the engine's index stores no prefix, so no engine depends on
// it. The configuration is hashed through
// core.PipelineConfig.Normalized — the same defaulting core.Build
// applies — so {MaxLen: 0} and {MaxLen: 4} hash alike, and the
// support threshold is hashed as the *effective* absolute support
// (EffectiveMinSupport), not the raw fraction: two fractions that
// floor to the same minimum group size on this dataset build
// bit-identical engines and must share the address.
type Fingerprint [sha256.Size]byte

// ComputeFingerprint hashes a dataset + pipeline configuration into
// its content address. For a versioned snapshot this is the *base*
// fingerprint — the head of the delta chain (see ChainFingerprint).
func ComputeFingerprint(d *dataset.Dataset, cfg core.PipelineConfig) Fingerprint {
	cfg = cfg.Normalized()
	h := fpHasher{h: sha256.New()}
	h.str("vexus-snapshot-fp-v2")

	// Schema.
	h.num(len(d.Schema.Attrs))
	for i := range d.Schema.Attrs {
		a := &d.Schema.Attrs[i]
		h.str(a.Name)
		h.num(int(a.Kind))
		h.num(len(a.Values))
		for _, v := range a.Values {
			h.str(v)
		}
		h.num(len(a.Bins))
		for _, b := range a.Bins {
			h.f64(b)
		}
	}
	// Users.
	h.num(d.NumUsers())
	for i := range d.Users {
		h.str(d.Users[i].ID)
		for _, v := range d.Users[i].Demo {
			h.num(v)
		}
	}
	// Items.
	h.num(d.NumItems())
	for i := range d.Items {
		h.str(d.Items[i].ID)
		h.str(d.Items[i].Label)
	}
	// Actions.
	h.num(d.NumActions())
	for i := range d.Actions {
		a := &d.Actions[i]
		h.num(a.User)
		h.num(a.Item)
		h.f64(a.Value)
		h.num(int(a.Time))
	}

	// Pipeline configuration, normalized exactly as core.Build applies
	// defaults so equivalent configs share the address.
	h.str("encode")
	if cfg.Encode.Demographics {
		h.num(1)
	} else {
		h.num(0)
	}
	h.num(cfg.Encode.TopItems)
	h.f64(cfg.Encode.LikeThreshold)
	h.num(cfg.Encode.ActivityLevels)

	h.str("pipeline")
	// LCM's bounds, with the support fraction entering as the absolute
	// threshold it resolves to on this dataset — the quantity LCM
	// actually sees. The trailing empty string is where a custom
	// miner's key was hashed while the miner was an option; it stays so
	// every default-config address is unchanged.
	h.num(cfg.EffectiveMinSupport(d.NumUsers()))
	h.num(cfg.MaxLen)
	h.num(cfg.MaxGroups)
	h.str("")

	var fp Fingerprint
	h.h.Sum(fp[:0])
	return fp
}

// ChainFingerprint folds an ingestion lineage onto a base fingerprint:
// fp_i = SHA-256("vexus-delta-v1" | fp_{i-1} | digest_i). A versioned
// snapshot's header carries the chain head over everything it
// materializes — base build plus every batch in its DLOG and DLTA
// sections — so a loader holding only the spec dataset and config can
// verify the whole file, and any divergence (missing delta, partial
// append, foreign base) reads as stale.
func ChainFingerprint(base Fingerprint, lineage []core.BatchDigest) Fingerprint {
	fp := base
	for _, dg := range lineage {
		h := sha256.New()
		h.Write([]byte("vexus-delta-v1"))
		h.Write(fp[:])
		h.Write(dg[:])
		h.Sum(fp[:0])
	}
	return fp
}

// fpHasher streams primitives into a hash without building the whole
// serialization in memory (datasets can be large).
type fpHasher struct {
	h   hash.Hash
	buf [8]byte
}

func (f *fpHasher) num(v int) {
	binary.LittleEndian.PutUint64(f.buf[:], uint64(int64(v)))
	f.h.Write(f.buf[:])
}

func (f *fpHasher) f64(v float64) {
	binary.LittleEndian.PutUint64(f.buf[:], math.Float64bits(v))
	f.h.Write(f.buf[:])
}

func (f *fpHasher) str(s string) {
	f.num(len(s))
	f.h.Write([]byte(s))
}
