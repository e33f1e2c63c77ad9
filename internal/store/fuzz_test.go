package store

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/greedy"
)

// fuzzFix is the fuzz target's oracle: the spec (a small dataset and
// its pipeline configuration), its base engine, the engine one
// ingested batch makes of it, and the snapshots a deployment would
// hold for each — the base alone, and the base plus one DLTA section.
var fuzzFix struct {
	once            sync.Once
	d               *dataset.Dataset
	cfg             core.PipelineConfig
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
			cfg := withWorkers(testPipelineConfig(), 1)
			fuzzFix.d, fuzzFix.cfg = d, cfg
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
				if _, _, err := LoadFreshBytes(snap, d, cfg); err != nil {
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
// contract: whatever the bytes, loading under the spec never panics,
// and it either fails or returns an engine that carries the spec's
// configuration and serves exactly what core.Build (and Ingest) would
// — the same neighbour lists and the same initial display.
func FuzzLoadFreshBytes(f *testing.F) {
	fuzzFixture(f)
	f.Add(fuzzFix.baseSnap)
	f.Add(fuzzFix.delta)
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, _, err := LoadFreshBytes(data, fuzzFix.d, fuzzFix.cfg)
		if err != nil {
			return
		}
		if eng.Config() != fuzzFix.cfg.Normalized() {
			t.Fatalf("loaded configuration %+v, want the spec's %+v", eng.Config(), fuzzFix.cfg.Normalized())
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
		k := greedy.DefaultConfig().K
		if g, w := eng.Largest(k), want.Largest(k); !slices.Equal(g, w) {
			t.Fatalf("initial display %v, want %v", g, w)
		}
	})
}
