package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
)

// goldenCorpus is one corpus whose built engine is pinned byte for
// byte: snapHash is the SHA-256 of store.Save's output with Timings
// zeroed, orderHash the SHA-256 of Largest(Space.Len()) as little-endian
// uint32s. The values were computed before the offline pipeline's
// closure, encoding, size and key shortcuts went in (commit db37302),
// so every later build, at every worker count, must reproduce that
// engine exactly.
type goldenCorpus struct {
	name                string
	data                func() (*dataset.Dataset, error)
	encode              func() core.PipelineConfig
	minSup              float64
	snapHash, orderHash string
}

var goldenCorpora = []goldenCorpus{
	{
		// wallbench's live corpus, the one every ingest rebuilds.
		name: "dbauthors-500@0.08",
		data: func() (*dataset.Dataset, error) {
			return datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 500, Seed: 42})
		},
		encode:    dbauthorsConfig,
		minSup:    0.08,
		snapHash:  "9e7570ddc7b37be259a3559aee1420029103cf420131b620ac38ebd865249925",
		orderHash: "6206d6d573276d275e93429a819e4e1fd8cf8f5c9c33ca23edf1f0904b1f4940",
	},
	{
		name: "bookcrossing-600@0.02",
		data: func() (*dataset.Dataset, error) {
			return datagen.BookCrossing(datagen.BookCrossingConfig{NumUsers: 600, NumBooks: 400, NumRatings: 6000, Seed: 42})
		},
		encode: func() core.PipelineConfig {
			cfg := core.DefaultPipelineConfig()
			cfg.Encode = datagen.BookCrossingEncodeOptions()
			return cfg
		},
		minSup:    0.02,
		snapHash:  "7cb4b39212df305764e0a344b0d7c7f67afcd9098f192a4720becfa34d293c1a",
		orderHash: "8893c48427129dd7b9b19745a21d5004962deec190dfd65a89d7e220df80e798",
	},
	{
		name: "dbauthors-1500@0.02",
		data: func() (*dataset.Dataset, error) {
			return datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 1500, Seed: 42})
		},
		encode:    dbauthorsConfig,
		minSup:    0.02,
		snapHash:  "6db12a0caf2344b721d76d684ae16913b0e184200157d9bce637d6d965bce336",
		orderHash: "e07ca016691fd7f23313f1214dbe0bf450ef658d76b0e953a71bc7d210f744fc",
	},
}

func dbauthorsConfig() core.PipelineConfig {
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.DBAuthorsEncodeOptions()
	return cfg
}

// engineHashes returns the golden hashes of eng (see goldenCorpus).
// It zeroes eng.Timings, so eng must be the caller's own.
func engineHashes(t *testing.T, eng *core.Engine, fp Fingerprint) (snap, order string) {
	t.Helper()
	eng.Timings = core.Timings{}
	var buf bytes.Buffer
	if err := Save(&buf, eng, fp); err != nil {
		t.Fatal(err)
	}
	s := sha256.Sum256(buf.Bytes())
	var ids []byte
	for _, gid := range eng.Largest(eng.Space.Len()) {
		ids = binary.LittleEndian.AppendUint32(ids, uint32(gid))
	}
	o := sha256.Sum256(ids)
	return hex.EncodeToString(s[:]), hex.EncodeToString(o[:])
}

// TestEngineGolden pins the engine Build produces, and the engine a
// load of its snapshot produces, to the bytes of the golden corpora at
// workers 1, 2 and 8.
func TestEngineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three corpora at three worker counts")
	}
	for _, c := range goldenCorpora {
		d, err := c.data()
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.encode()
		cfg.MinSupportFrac = c.minSup
		fp := ComputeFingerprint(d, cfg)
		for _, workers := range workerCounts {
			eng, err := core.Build(d, withWorkers(cfg, workers))
			if err != nil {
				t.Fatal(err)
			}
			snap, order := engineHashes(t, eng, fp)
			if snap != c.snapHash || order != c.orderHash {
				t.Errorf("%s workers=%d: built engine snap %s order %s, golden %s %s",
					c.name, workers, snap, order, c.snapHash, c.orderHash)
			}
			var buf bytes.Buffer
			if err := Save(&buf, eng, fp); err != nil {
				t.Fatal(err)
			}
			loaded, _, err := LoadFreshBytes(buf.Bytes(), d, withWorkers(cfg, workers))
			if err != nil {
				t.Fatal(err)
			}
			if snap, order = engineHashes(t, loaded, fp); snap != c.snapHash || order != c.orderHash {
				t.Errorf("%s workers=%d: loaded engine snap %s order %s, golden %s %s",
					c.name, workers, snap, order, c.snapHash, c.orderHash)
			}
		}
	}
}
