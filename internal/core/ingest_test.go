package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"testing"

	"vexus/internal/bitset"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/groups"
	"vexus/internal/store"
)

// The ingest tests live in core_test (not core) so they can reach for
// store.Save as the equality oracle: two engines are identical exactly
// when their snapshots serialize to the same bytes under the same
// fingerprint — every materialized structure is covered, with no
// reflective comparison to drift out of sync with the engine's fields.

func ingestTestData(t *testing.T) (*dataset.Dataset, core.PipelineConfig) {
	t.Helper()
	d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.DBAuthorsEncodeOptions()
	cfg.MinSupportFrac = 0.02
	return d, cfg
}

func ingestTestBatch() core.IngestBatch {
	return core.IngestBatch{
		Users: []dataset.NewUser{
			{ID: "newcomer1", Demo: map[string]string{
				"gender": "female", "seniority": "junior", "country": "fr", "topic": "databases",
			}, Numeric: map[string]float64{"pubrate": 3}},
			{ID: "newcomer2", Demo: map[string]string{
				"gender": "male", "seniority": "very senior", "country": "us", "topic": "data mining",
			}, Numeric: map[string]float64{"pubrate": 80}},
		},
		Actions: []dataset.NewAction{
			{User: "newcomer1", Item: "SIGMOD", Value: 1, Time: 2018},
			{User: "newcomer2", Item: "KDD", Value: 1, Time: 2018},
			{User: "author00001", Item: "VLDB", Value: 1, Time: 2018},
		},
	}
}

// snapshotBytes serializes an engine under a fixed fingerprint — the
// bit-identity oracle. Timings are wall clock, the one deliberately
// non-deterministic field a snapshot carries; zero them so the
// comparison covers exactly the materialized state.
func snapshotBytes(t *testing.T, eng *core.Engine) []byte {
	t.Helper()
	eng.Timings = core.Timings{}
	var buf bytes.Buffer
	if err := store.Save(&buf, eng, store.Fingerprint{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestEquivalentToBuild pins the tentpole exactness contract at
// several worker counts: Ingest(batch) on a resident engine is
// byte-identical to core.Build over the augmented dataset, whatever
// parallelism either side ran with.
func TestIngestEquivalentToBuild(t *testing.T) {
	d, cfg := ingestTestData(t)
	b := ingestTestBatch()
	for _, workers := range []int{1, 2, 8} {
		wcfg := cfg
		wcfg.Workers = workers
		base, err := core.Build(d, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := base.Version(); got != 1 {
			t.Fatalf("workers %d: fresh engine version = %d, want 1", workers, got)
		}
		ne, err := base.Ingest(b)
		if err != nil {
			t.Fatalf("workers %d: ingest: %v", workers, err)
		}
		if got := ne.Version(); got != 2 {
			t.Fatalf("workers %d: post-ingest version = %d, want 2", workers, got)
		}
		if base.Version() != 1 {
			t.Fatalf("workers %d: receiver version mutated to %d", workers, base.Version())
		}

		d2, err := d.Append(b.Users, b.Actions)
		if err != nil {
			t.Fatal(err)
		}
		// Reference build always runs single-worker: equality across
		// the pairs (1,1) (2,1) (8,1) pins worker independence too.
		rcfg := cfg
		rcfg.Workers = 1
		want, err := core.BuildWithLineage(d2, rcfg, ne.Lineage())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotBytes(t, ne), snapshotBytes(t, want)) {
			t.Fatalf("workers %d: Ingest(batch) is not bit-identical to Build(augmented dataset)", workers)
		}
	}
}

// TestIngestChained walks the version ladder: two batches produce
// versions 2 and 3 with a two-entry lineage, equal to folding both
// batches into the dataset and building once.
func TestIngestChained(t *testing.T) {
	d, cfg := ingestTestData(t)
	base, err := core.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1 := ingestTestBatch()
	b2 := core.IngestBatch{Actions: []dataset.NewAction{
		{User: "newcomer1", Item: "ICDE", Value: 1, Time: 2019},
		{User: "author00002", Item: "SIGMOD", Value: 1, Time: 2019},
	}}
	v2, err := base.Ingest(b1)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := v2.Ingest(b2)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Version() != 3 || len(v3.Lineage()) != 2 {
		t.Fatalf("version = %d lineage = %d, want 3 and 2", v3.Version(), len(v3.Lineage()))
	}
	if v3.Lineage()[0] != b1.Digest() || v3.Lineage()[1] != b2.Digest() {
		t.Fatal("lineage digests do not match the ingested batches")
	}

	d2, err := d.Append(b1.Users, b1.Actions)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := d2.Append(b2.Users, b2.Actions)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.BuildWithLineage(d3, cfg, v3.Lineage())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, v3), snapshotBytes(t, want)) {
		t.Fatal("chained ingests diverge from one build over the fully augmented dataset")
	}
}

// TestIngestValidation: bad batches are rejected and leave the engine
// untouched.
func TestIngestValidation(t *testing.T) {
	d, cfg := ingestTestData(t)
	eng, err := core.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ingest(core.IngestBatch{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	bad := core.IngestBatch{Users: []dataset.NewUser{
		{ID: "x", Demo: map[string]string{"gender": "robot"}},
	}}
	if _, err := eng.Ingest(bad); err == nil {
		t.Fatal("out-of-domain demographic value accepted")
	}
	dup := core.IngestBatch{Users: []dataset.NewUser{
		{ID: "author00001", Demo: map[string]string{"gender": "female"}},
	}}
	if _, err := eng.Ingest(dup); err == nil {
		t.Fatal("duplicate user id accepted")
	}
	if eng.Version() != 1 {
		t.Fatalf("failed ingests advanced the version to %d", eng.Version())
	}
}

// TestBatchCodecRoundTrip: the canonical binary encoding decodes back
// to the same batch and the digest is deterministic.
func TestBatchCodecRoundTrip(t *testing.T) {
	b := ingestTestBatch()
	b.Seq = 7
	raw := b.AppendBinary(nil)
	got, err := core.DecodeIngestBatch(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.AppendBinary(nil), raw) {
		t.Fatal("decode→encode is not the identity")
	}
	if got.Digest() != b.Digest() {
		t.Fatal("digest changed across the round trip")
	}
	other := b
	other.Seq = 8
	if other.Digest() == b.Digest() {
		t.Fatal("digest ignores seq")
	}
	if _, err := core.DecodeIngestBatch(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated encoding accepted")
	}
	if _, err := core.DecodeIngestBatch(append(append([]byte(nil), raw...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// nonCanonicalBatches returns encodings of a one-user batch that
// AppendBinary never writes, keyed by what is wrong with them.
func nonCanonicalBatches() map[string][]byte {
	b := core.IngestBatch{Users: []dataset.NewUser{
		{ID: "u", Demo: map[string]string{"country": "fr", "gender": "female"}},
	}}
	raw := b.AppendBinary(nil)
	country, gender := []byte("\x07country\x02fr"), []byte("\x06gender\x06female")
	pairs := append(append([]byte(nil), country...), gender...)
	at := bytes.Index(raw, pairs)
	splice := func(with []byte) []byte {
		out := append([]byte(nil), raw[:at]...)
		out = append(out, with...)
		return append(out, raw[at+len(pairs):]...)
	}
	magic := len("vexus-ingest-v1")
	padded := append(append(append([]byte(nil), raw[:magic]...), 0x80, 0x00), raw[magic+1:]...)
	return map[string][]byte{
		"swapped demographic pairs": splice(append(append([]byte(nil), gender...), country...)),
		"repeated demographic key":  splice(append(append([]byte(nil), country...), country...)),
		"padded seq varint":         padded,
	}
}

// TestDecodeIngestBatchRejectsNonCanonical: the decoder fails closed on
// encodings AppendBinary never writes, which would otherwise decode to
// a batch whose Digest is not the hash of the stored bytes.
func TestDecodeIngestBatchRejectsNonCanonical(t *testing.T) {
	for name, data := range nonCanonicalBatches() {
		if _, err := core.DecodeIngestBatch(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeIngestBatch: the binary batch decoder (the snapshot DLTA
// section payload) never panics, and whatever it accepts is canonical:
// it re-encodes to the input bytes, so its digest hashes them.
func FuzzDecodeIngestBatch(f *testing.F) {
	b := ingestTestBatch()
	b.Seq = 7
	raw := b.AppendBinary(nil)
	f.Add(raw)
	f.Add(core.IngestBatch{}.AppendBinary(nil))
	f.Add(raw[:len(raw)-3])
	f.Add(append(append([]byte(nil), raw...), 0))
	for _, data := range nonCanonicalBatches() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := core.DecodeIngestBatch(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.AppendBinary(nil), data) {
			t.Fatal("accepted input differs from its re-encoding")
		}
		if got.Digest() != sha256.Sum256(data) {
			t.Fatal("digest of an accepted batch is not the hash of its bytes")
		}
	})
}

// TestDecodeIngestJSONRefuses: unknown fields, data after the batch
// object and batches without records are bad requests, not batches.
func TestDecodeIngestJSONRefuses(t *testing.T) {
	for _, body := range []string{
		`{"users":[{"id":"u","extra":1}]}`,
		`{"users":[{"id":"u"}],"sequence":1}`,
		`{"users":[{"id":"u"}]} {}`,
		`{"users":[{"id":"u"}]}]`,
		`{"seq":4}`,
		`{}`,
		`null`,
		``,
	} {
		if b, err := core.DecodeIngestJSON([]byte(body)); err == nil {
			t.Fatalf("%s: accepted as %+v", body, b)
		}
	}
	if _, err := core.DecodeIngestJSON([]byte(" {\"actions\":[{\"user\":\"u\",\"item\":\"i\",\"value\":1}]}\n")); err != nil {
		t.Fatalf("batch with surrounding whitespace refused: %v", err)
	}
}

// FuzzDecodeIngestJSON: the ingest request decoder never panics, and
// whatever it accepts survives the gateway's re-encoding: json.Marshal
// of the batch is accepted again and decodes to the same canonical
// encoding, so every shard folds the batch the client sent.
func FuzzDecodeIngestJSON(f *testing.F) {
	raw, err := json.Marshal(ingestTestBatch())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	for _, seed := range []string{
		`{"seq":3,"actions":[{"user":"u","item":"i","value":-0,"time":-1}]}`,
		`{"users":[{"id":"u","demo":{},"numeric":{"x":1e308}}],"actions":[]}`,
		`{"users":[{"id":"\ud800\xff"}]}`,
		`{"users":[{"id":"u","extra":1}]}`,
		`{"users":null,"actions":null}`,
		`{"actions":[{"user":"u","item":"i","value":1,"time":1.5}]}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := core.DecodeIngestJSON(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("accepted batch does not marshal: %v", err)
		}
		b2, err := core.DecodeIngestJSON(again)
		if err != nil {
			t.Fatalf("re-encoded batch %s refused: %v", again, err)
		}
		if !bytes.Equal(b.AppendBinary(nil), b2.AppendBinary(nil)) {
			t.Fatalf("re-encoded batch %s decodes to a different batch", again)
		}
	})
}

// TestGroupTouchedAndDiff: after an ingest, groups the new users join
// read as touched, groups they cannot affect read as untouched, and
// DiffSpaces is consistent with per-group checks.
func TestGroupTouchedAndDiff(t *testing.T) {
	d, cfg := ingestTestData(t)
	base, err := core.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := base.Ingest(ingestTestBatch())
	if err != nil {
		t.Fatal(err)
	}
	touched, untouched, vanished := 0, 0, 0
	for _, g := range base.Space.Groups() {
		if core.GroupTouched(base.Space, g.ID, ne.Space) {
			touched++
		} else {
			untouched++
		}
		if ne.Space.ByDescription(g.Desc) == nil {
			vanished++
		}
	}
	// Two new users in specific demographics: some groups must grow,
	// and the ones in demographics the batch never mentions must not.
	if touched == 0 {
		t.Fatal("no group touched by an ingest that adds members")
	}
	if untouched == 0 {
		t.Fatal("every group touched — targeted invalidation would degenerate to broadcast")
	}
	// Descriptions are unique in both spaces, so every changed group of
	// the new space is one touched old group that did not vanish, and
	// every other new group is discovered.
	discovered, changed := core.DiffSpaces(base.Space, ne.Space)
	kept := base.Space.Len() - vanished
	if changed != touched-vanished || discovered != ne.Space.Len()-kept {
		t.Fatalf("DiffSpaces = (%d, %d), want (%d, %d)", discovered, changed, ne.Space.Len()-kept, touched-vanished)
	}
	if changed == 0 {
		t.Fatal("DiffSpaces found no changed group")
	}
}

// TestDiffSpacesGrownUniverse pins the cross-version comparison on
// hand-built spaces: a group whose only new member lies past the old
// universe's last word is changed (only the sizes can tell), one with
// the same members is not, and descriptions that vanish or appear are
// counted once each.
func TestDiffSpacesGrownUniverse(t *testing.T) {
	vocab := groups.NewVocab()
	a := vocab.Intern("t", "a")
	b := vocab.Intern("t", "b")
	c := vocab.Intern("t", "c")
	d := vocab.Intern("t", "d")
	space := func(n int, gs ...*groups.Group) *groups.Space {
		s, err := groups.NewSpace(n, vocab, gs)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	group := func(n int, id groups.TermID, members ...int) *groups.Group {
		return &groups.Group{Desc: groups.NewDescription(id), Members: bitset.FromIndices(n, members)}
	}
	old := space(64, group(64, a, 1, 2), group(64, b, 3, 4), group(64, c, 5))
	grown := space(70, group(70, a, 1, 2, 65), group(70, b, 3, 4), group(70, d, 66))
	if !core.GroupTouched(old, 0, grown) {
		t.Error("group {a} gained user 65 but reads untouched")
	}
	if core.GroupTouched(old, 1, grown) {
		t.Error("group {b} kept its members but reads touched")
	}
	if !core.GroupTouched(old, 2, grown) {
		t.Error("group {c} vanished but reads untouched")
	}
	if discovered, changed := core.DiffSpaces(old, grown); discovered != 1 || changed != 1 {
		t.Errorf("DiffSpaces = (%d, %d), want (1, 1)", discovered, changed)
	}
}
