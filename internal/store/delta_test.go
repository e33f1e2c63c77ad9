package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
)

func deltaBatch(seq uint64) core.IngestBatch {
	return core.IngestBatch{
		Seq: seq,
		Users: []dataset.NewUser{
			{ID: "late-author", Demo: map[string]string{
				"gender": "female", "seniority": "senior", "country": "br", "topic": "data mining",
			}, Numeric: map[string]float64{"pubrate": 25}},
		},
		Actions: []dataset.NewAction{
			{User: "late-author", Item: "KDD", Value: 1, Time: 2018},
			{User: "author00003", Item: "SIGMOD", Value: 1, Time: 2018},
		},
	}
}

// TestDeltaRoundTripBitIdentical pins the warm-start half of the
// live-dataset contract: a snapshot of the base engine plus an
// appended DLTA section loads — at every worker count — into an engine
// bit-identical to the one Ingest produced in memory; compacting the
// file (full rewrite of the post-ingest engine) preserves that
// identity and the lineage.
func TestDeltaRoundTripBitIdentical(t *testing.T) {
	base, cfg := builtEngine(t)
	fp := ComputeFingerprint(base.Data, cfg)
	b := deltaBatch(1)
	ne, err := base.Ingest(b)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "live.snap")
	if err := SaveFile(path, base, fp); err != nil {
		t.Fatal(err)
	}
	head := ChainFingerprint(fp, ne.Lineage())
	if err := AppendDeltaFile(path, b, head); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		got, pending, err := load(raw, &fp, withWorkers(cfg, workers))
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if pending != 1 {
			t.Fatalf("workers %d: %d pending deltas, want 1", workers, pending)
		}
		requireEnginesIdentical(t, ne, got)
		if got.Version() != 2 || len(got.Lineage()) != 1 || got.Lineage()[0] != b.Digest() {
			t.Fatalf("workers %d: version %d lineage %v", workers, got.Version(), got.Lineage())
		}
	}

	// Compaction: rewrite as a base+DLOG snapshot, no DLTA sections.
	if err := SaveFile(path, ne, fp); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	got, pending, err := load(raw, &fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pending != 0 {
		t.Fatalf("%d pending deltas after compaction", pending)
	}
	requireEnginesIdentical(t, ne, got)
	if got.Version() != 2 || got.Lineage()[0] != b.Digest() {
		t.Fatal("compaction lost the lineage")
	}
}

// TestBuildOrLoadCompactsPastThreshold: a warm load leaves fewer than
// CompactThreshold pending deltas in place, and at CompactThreshold it
// rewrites the snapshot compacted in place.
func TestBuildOrLoadCompactsPastThreshold(t *testing.T) {
	base, cfg := builtEngine(t)
	fp := ComputeFingerprint(base.Data, cfg)
	path := filepath.Join(t.TempDir(), "live.snap")
	if err := SaveFile(path, base, fp); err != nil {
		t.Fatal(err)
	}
	pendingIn := func() int {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, pending, err := load(raw, &fp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pending
	}

	ne := base
	for seq := uint64(1); seq <= CompactThreshold; seq++ {
		b := deltaBatch(1)
		if seq > 1 {
			b = core.IngestBatch{Seq: seq, Actions: []dataset.NewAction{
				{User: "author00003", Item: "VLDB", Value: 1, Time: 2018 + int64(seq)},
			}}
		}
		var err error
		if ne, err = ne.Ingest(b); err != nil {
			t.Fatal(err)
		}
		if err := AppendDeltaFile(path, b, ChainFingerprint(fp, ne.Lineage())); err != nil {
			t.Fatal(err)
		}
		if seq == CompactThreshold-1 {
			if _, warm, _, err := BuildOrLoad(path, base.Data, cfg); err != nil || !warm {
				t.Fatalf("base+%d deltas did not warm-start: %v", seq, err)
			}
			if pending := pendingIn(); pending != int(seq) {
				t.Fatalf("a load below the threshold left %d pending deltas, want %d", pending, seq)
			}
		}
	}
	got, warm, _, err := BuildOrLoad(path, base.Data, cfg)
	if err != nil || !warm {
		t.Fatalf("base+deltas snapshot did not warm-start: %v", err)
	}
	requireEnginesIdentical(t, ne, got)
	if pending := pendingIn(); pending != 0 {
		t.Fatalf("BuildOrLoad left %d deltas uncompacted", pending)
	}
	// The compacted file still warm-starts from the same spec inputs.
	again, warm, _, err := BuildOrLoad(path, base.Data, cfg)
	if err != nil || !warm {
		t.Fatalf("compacted snapshot did not warm-start: %v", err)
	}
	requireEnginesIdentical(t, ne, again)
}

// TestDeltaChainStaleness: any divergence between the header chain and
// the sections — a foreign delta, a truncated append, a head that was
// never patched — reads as ErrStale, never as silently wrong data.
func TestDeltaChainStaleness(t *testing.T) {
	base, cfg := builtEngine(t)
	fp := ComputeFingerprint(base.Data, cfg)
	b := deltaBatch(1)
	ne, err := base.Ingest(b)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Head never patched (crash between tail write and header write):
	// append with the OLD head still in the header.
	path := filepath.Join(dir, "unpatched.snap")
	if err := SaveFile(path, base, fp); err != nil {
		t.Fatal(err)
	}
	if err := AppendDeltaFile(path, b, fp); err != nil { // header keeps base fp
		t.Fatal(err)
	}
	if _, err := loadFile(path, base.Data, cfg); !errors.Is(err, ErrStale) {
		t.Fatalf("unpatched header load err = %v, want ErrStale", err)
	}

	// Properly chained file, wrong expected base fingerprint.
	path2 := filepath.Join(dir, "chained.snap")
	if err := SaveFile(path2, base, fp); err != nil {
		t.Fatal(err)
	}
	if err := AppendDeltaFile(path2, b, ChainFingerprint(fp, ne.Lineage())); err != nil {
		t.Fatal(err)
	}
	wrong := cfg
	wrong.MinSupportFrac = 0.05
	if _, err := loadFile(path2, base.Data, wrong); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong-base load err = %v, want ErrStale", err)
	}

	// Truncated mid-delta: the file ends inside the DLTA frame.
	raw, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	path3 := filepath.Join(dir, "truncated.snap")
	if err := os.WriteFile(path3, raw[:len(raw)-24], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadFile(path3, base.Data, cfg); err == nil {
		t.Fatal("truncated delta file loaded")
	}

	// BuildOrLoad on a stale chain rebuilds instead of failing.
	eng, warm, _, err := BuildOrLoad(path2, base.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		// path2 is valid for fp — warm is expected; re-check with the
		// unpatched file where the chain cannot verify.
		t.Log("chained snapshot warm-started (expected)")
	}
	eng2, warm2, _, err := BuildOrLoad(path, base.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm2 {
		t.Fatal("stale (unpatched) snapshot warm-started")
	}
	requireEnginesIdentical(t, eng2, base)
	_ = eng
}

// TestAppendDeltaFileValidation: appends refuse files that are not
// well-formed snapshots.
func TestAppendDeltaFileValidation(t *testing.T) {
	dir := t.TempDir()
	b := deltaBatch(1)
	if err := AppendDeltaFile(filepath.Join(dir, "missing.snap"), b, Fingerprint{}); err == nil {
		t.Fatal("appended to a missing file")
	}
	junk := filepath.Join(dir, "junk.snap")
	if err := os.WriteFile(junk, []byte("not a snapshot, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendDeltaFile(junk, b, Fingerprint{}); err == nil {
		t.Fatal("appended to a non-snapshot file")
	}
}

// TestFingerprintNormalizedConfig is the spurious-rebuild pin: configs
// that normalize identically — zero values vs explicit defaults, or
// support fractions that floor to the same absolute threshold — must
// share a fingerprint, and genuinely different effective bounds must
// not.
func TestFingerprintNormalizedConfig(t *testing.T) {
	base, cfg := builtEngine(t)
	d := base.Data

	zero := cfg
	zero.MaxLen, zero.MaxGroups, zero.IndexFraction = 0, 0, 0
	explicit := cfg
	explicit.MaxLen, explicit.MaxGroups, explicit.IndexFraction = 4, 100_000, 0.10
	if ComputeFingerprint(d, zero) != ComputeFingerprint(d, explicit) {
		t.Fatal("zero-value config fingerprints differently from explicit defaults")
	}

	// 400 users: 0.02 and 0.021 both floor to minimum support 8.
	a, bb := cfg, cfg
	a.MinSupportFrac, bb.MinSupportFrac = 0.02, 0.021
	if a.EffectiveMinSupport(d.NumUsers()) != bb.EffectiveMinSupport(d.NumUsers()) {
		t.Fatal("test premise broken: fractions resolve to different thresholds")
	}
	if ComputeFingerprint(d, a) != ComputeFingerprint(d, bb) {
		t.Fatal("equal effective support fingerprints differently")
	}

	c := cfg
	c.MinSupportFrac = 0.05 // 20 users — a different mined space
	if ComputeFingerprint(d, a) == ComputeFingerprint(d, c) {
		t.Fatal("different effective support shares a fingerprint")
	}

	// Workers never enters the address.
	w8 := cfg
	w8.Workers = 8
	if ComputeFingerprint(d, cfg) != ComputeFingerprint(d, w8) {
		t.Fatal("worker count changed the fingerprint")
	}
}

// TestForgedMetaConfigNotServed is the regression test for a snapshot
// whose META carried a pipeline configuration other than the one its
// fingerprint covered. testdata/forged-meta-v4.snap is the fuzz
// fixture's base+delta file as version 4 wrote it, with META's
// MinSupportFrac rewritten from 0.02 to 0.05 and its CRC recomputed.
// Version 4 loaders replayed the delta under the forged bound and
// served 798 groups where core.Build plus Ingest gives 864. No
// version-5 file stores a configuration, and the version-4 file must
// be refused and rebuilt to the spec's engine.
func TestForgedMetaConfigNotServed(t *testing.T) {
	d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testPipelineConfig()
	forged, err := os.ReadFile(filepath.Join("testdata", "forged-meta-v4.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFreshBytes(forged, d, cfg); err == nil {
		t.Fatal("forged version-4 snapshot loaded")
	}

	path := filepath.Join(t.TempDir(), "forged.snap")
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	got, warm, fp, err := BuildOrLoad(path, d, cfg)
	if got == nil {
		t.Fatalf("rebuild failed: %v", err)
	}
	if warm {
		t.Fatalf("forged snapshot served: %d groups", got.Space.Len())
	}
	if err == nil || !strings.Contains(err.Error(), "version 4") {
		t.Fatalf("version skew not reported: %v", err)
	}
	want, err := core.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSnapshotsEqual(t, want, got, fp)
	if got.Config() != cfg.Normalized() {
		t.Fatalf("rebuilt engine's configuration %+v, want %+v", got.Config(), cfg.Normalized())
	}
}

// TestLoadTakesCallerConfig is the property behind the trust boundary:
// a version-5 snapshot, base or base+delta, loaded under spec S at any
// worker count carries S as its configuration, and its next Ingest is
// bit-identical (store.Save is the oracle) to core.Build plus the same
// Ingest calls under S. S ranges over the configuration the file was
// built with and one that differs but shares its fingerprint (a
// support fraction that floors to the same threshold), so an engine
// that kept the builder's configuration fails.
func TestLoadTakesCallerConfig(t *testing.T) {
	base, cfg := builtEngine(t)
	d := base.Data
	fp := ComputeFingerprint(d, cfg)
	b := deltaBatch(1)
	ingested, err := base.Ingest(b)
	if err != nil {
		t.Fatal(err)
	}
	var baseSnap bytes.Buffer
	if err := Save(&baseSnap, base, fp); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "live.snap")
	if err := SaveFile(path, base, fp); err != nil {
		t.Fatal(err)
	}
	if err := AppendDeltaFile(path, b, ChainFingerprint(fp, ingested.Lineage())); err != nil {
		t.Fatal(err)
	}
	deltaSnap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := core.IngestBatch{
		Users: []dataset.NewUser{{ID: "next-author", Demo: map[string]string{
			"gender": "male", "seniority": "junior", "country": "fr", "topic": "databases",
		}, Numeric: map[string]float64{"pubrate": 3}}},
		Actions: []dataset.NewAction{
			{User: "next-author", Item: "VLDB", Value: 1, Time: 2019},
			{User: "author00007", Item: "KDD", Value: 1, Time: 2019},
		},
	}

	alt := cfg
	alt.MinSupportFrac = 0.021
	if alt == cfg || ComputeFingerprint(d, alt) != fp {
		t.Fatal("test premise broken: the alternative spec must differ yet share the fingerprint")
	}
	for _, spec := range []core.PipelineConfig{cfg, alt} {
		for _, workers := range workerCounts {
			s := withWorkers(spec, workers)
			for _, file := range []struct {
				name    string
				snap    []byte
				batches []core.IngestBatch
			}{
				{"base", baseSnap.Bytes(), nil},
				{"base+delta", deltaSnap, []core.IngestBatch{b}},
			} {
				eng, gotFP, err := LoadFreshBytes(file.snap, d, s)
				if err != nil {
					t.Fatalf("%s, minsup %v, workers %d: %v", file.name, spec.MinSupportFrac, workers, err)
				}
				if gotFP != fp {
					t.Fatalf("%s: returned fingerprint %x, want %x", file.name, gotFP, fp)
				}
				if eng.Config() != s.Normalized() {
					t.Fatalf("%s, workers %d: configuration %+v, want the spec's %+v", file.name, workers, eng.Config(), s.Normalized())
				}
				want, err := core.Build(d, s)
				if err != nil {
					t.Fatal(err)
				}
				for _, bb := range append(file.batches, next) {
					bb.Seq = want.Version()
					if want, err = want.Ingest(bb); err != nil {
						t.Fatal(err)
					}
				}
				next.Seq = eng.Version()
				got, err := eng.Ingest(next)
				if err != nil {
					t.Fatal(err)
				}
				requireSnapshotsEqual(t, want, got, fp)
			}
		}
	}
}

// requireSnapshotsEqual asserts that want and got save to the same
// bytes apart from META's wall-clock timings, which it zeroes; both
// engines must be the caller's own.
func requireSnapshotsEqual(t *testing.T, want, got *core.Engine, fp Fingerprint) {
	t.Helper()
	var w, g bytes.Buffer
	want.Timings, got.Timings = core.Timings{}, core.Timings{}
	if err := Save(&w, want, fp); err != nil {
		t.Fatal(err)
	}
	if err := Save(&g, got, fp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), g.Bytes()) {
		t.Fatalf("engine saves %d bytes that differ from the oracle's %d", g.Len(), w.Len())
	}
}
