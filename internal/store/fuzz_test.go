package store

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/greedy"
)

// fuzzFix is the fuzz target's oracle: a small base engine, the engine
// one ingested batch makes of it, and the snapshots a deployment would
// hold for each — the base alone, and the base plus one DLTA section.
var fuzzFix struct {
	once            sync.Once
	fp              Fingerprint
	base, ingested  *core.Engine
	baseSnap, delta []byte
	err             error
}

func fuzzFixture(f *testing.F) {
	f.Helper()
	fuzzFix.once.Do(func() {
		fuzzFix.err = func() error {
			d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 60, Seed: 7})
			if err != nil {
				return err
			}
			cfg := testPipelineConfig()
			if fuzzFix.base, err = core.Build(d, cfg); err != nil {
				return err
			}
			fuzzFix.fp = ComputeFingerprint(d, cfg)
			b := deltaBatch(1)
			if fuzzFix.ingested, err = fuzzFix.base.Ingest(b); err != nil {
				return err
			}
			path := filepath.Join(f.TempDir(), "fuzz.snap")
			if err := SaveFile(path, fuzzFix.base, fuzzFix.fp); err != nil {
				return err
			}
			if fuzzFix.baseSnap, err = os.ReadFile(path); err != nil {
				return err
			}
			if err := AppendDeltaFile(path, b, ChainFingerprint(fuzzFix.fp, fuzzFix.ingested.Lineage())); err != nil {
				return err
			}
			if fuzzFix.delta, err = os.ReadFile(path); err != nil {
				return err
			}
			// Both seeds must take the loader's success path, so the
			// fuzzer starts from it rather than from a rejection.
			for _, snap := range [][]byte{fuzzFix.baseSnap, fuzzFix.delta} {
				if _, _, err := loadFreshBytes(snap, fuzzFix.fp, 1); err != nil {
					return err
				}
			}
			return nil
		}()
	})
	if fuzzFix.err != nil {
		f.Fatal(fuzzFix.err)
	}
}

// FuzzLoadFreshBytes holds the snapshot loader to its trust-boundary
// contract: whatever the bytes, loading under the spec dataset's
// fingerprint never panics, and it either fails or returns an engine
// that serves exactly what core.Build (and Ingest) would — the same
// neighbour lists and the same initial display.
func FuzzLoadFreshBytes(f *testing.F) {
	fuzzFixture(f)
	f.Add(fuzzFix.baseSnap)
	f.Add(fuzzFix.delta)
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, _, err := loadFreshBytes(data, fuzzFix.fp, 1)
		if err != nil {
			return
		}
		// The header pins the lineage, so an accepted file is one of
		// the two engine versions the fixture knows.
		var want *core.Engine
		switch {
		case len(eng.Lineage()) == 0:
			want = fuzzFix.base
		case slices.Equal(eng.Lineage(), fuzzFix.ingested.Lineage()):
			want = fuzzFix.ingested
		default:
			t.Fatalf("accepted a snapshot with unknown lineage %x", eng.Lineage())
		}
		if eng.Space.Len() != want.Space.Len() {
			t.Fatalf("loaded %d groups, want %d", eng.Space.Len(), want.Space.Len())
		}
		pool := greedy.DefaultConfig().CandidatePool
		for gid := 0; gid < want.Space.Len(); gid++ {
			if g, w := eng.Index.Neighbors(gid, pool), want.Index.Neighbors(gid, pool); !slices.Equal(g, w) {
				t.Fatalf("group %d neighbours differ from the built engine's", gid)
			}
		}
		cfg := greedy.DefaultConfig()
		cfg.TimeLimit = 0
		if g, w := eng.NewSession(cfg).Start(), want.NewSession(cfg).Start(); !slices.Equal(g, w) {
			t.Fatalf("initial display %v, want %v", g, w)
		}
	})
}
