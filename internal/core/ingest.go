package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"vexus/internal/dataset"
	"vexus/internal/groups"
	"vexus/internal/mining"
	"vexus/internal/mining/stream"
)

// IngestBatch is one unit of the ingestion log: new users and actions
// to fold into a resident engine. Seq numbers batches like the action
// log numbers mutations — batch k is applied to engine version k and
// produces version k+1 — which makes ingestion replayable and
// idempotent at every layer (snapshot deltas, HTTP, shard fan-out).
type IngestBatch struct {
	Seq     uint64              `json:"seq,omitempty"`
	Users   []dataset.NewUser   `json:"users,omitempty"`
	Actions []dataset.NewAction `json:"actions,omitempty"`
}

// Empty reports whether the batch carries no records at all.
func (b IngestBatch) Empty() bool { return len(b.Users) == 0 && len(b.Actions) == 0 }

// AppendBinary appends the batch's canonical binary encoding — the
// form DLTA snapshot sections store and Digest hashes. Maps are
// serialized as key-sorted pairs so the encoding (and therefore the
// digest) is independent of Go map iteration order.
func (b IngestBatch) AppendBinary(buf []byte) []byte {
	buf = append(buf, "vexus-ingest-v1"...)
	buf = binary.AppendUvarint(buf, b.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(b.Users)))
	for _, u := range b.Users {
		buf = appendString(buf, u.ID)
		buf = binary.AppendUvarint(buf, uint64(len(u.Demo)))
		for _, k := range sortedKeys(u.Demo) {
			buf = appendString(buf, k)
			buf = appendString(buf, u.Demo[k])
		}
		buf = binary.AppendUvarint(buf, uint64(len(u.Numeric)))
		for _, k := range sortedKeysF(u.Numeric) {
			buf = appendString(buf, k)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.Numeric[k]))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.Actions)))
	for _, a := range b.Actions {
		buf = appendString(buf, a.User)
		buf = appendString(buf, a.Item)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Value))
		buf = binary.AppendUvarint(buf, uint64(a.Time))
	}
	return buf
}

// Digest is the batch's SHA-256 content address over the canonical
// binary encoding. Equal batches digest equal on every machine; the
// snapshot fingerprint chain and shard convergence checks build on it.
func (b IngestBatch) Digest() BatchDigest {
	return BatchDigest(sha256.Sum256(b.AppendBinary(nil)))
}

// DecodeIngestBatch parses a canonical binary encoding produced by
// AppendBinary. It fails closed: input AppendBinary would not write
// (unsorted or repeated map keys, padded varints) is rejected, so an
// accepted batch re-encodes to exactly the input bytes and its Digest
// is the hash of what was stored.
func DecodeIngestBatch(data []byte) (IngestBatch, error) {
	d := &batchDecoder{data: data}
	var b IngestBatch
	magic := "vexus-ingest-v1"
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return b, fmt.Errorf("core: ingest batch: bad magic")
	}
	d.pos = len(magic)
	b.Seq = d.uvarint()
	if n := d.count(); n > 0 {
		b.Users = make([]dataset.NewUser, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			u := dataset.NewUser{ID: d.str()}
			if dn := d.count(); dn > 0 {
				u.Demo = make(map[string]string, dn)
				for j := 0; j < dn && d.err == nil; j++ {
					k := d.str()
					u.Demo[k] = d.str()
				}
			}
			if nn := d.count(); nn > 0 {
				u.Numeric = make(map[string]float64, nn)
				for j := 0; j < nn && d.err == nil; j++ {
					k := d.str()
					u.Numeric[k] = d.f64()
				}
			}
			b.Users = append(b.Users, u)
		}
	}
	if n := d.count(); n > 0 {
		b.Actions = make([]dataset.NewAction, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			a := dataset.NewAction{User: d.str(), Item: d.str()}
			a.Value = d.f64()
			a.Time = int64(d.uvarint())
			b.Actions = append(b.Actions, a)
		}
	}
	if d.err != nil {
		return IngestBatch{}, fmt.Errorf("core: ingest batch: %w", d.err)
	}
	if d.pos != len(data) {
		return IngestBatch{}, fmt.Errorf("core: ingest batch: %d trailing bytes", len(data)-d.pos)
	}
	if !bytes.Equal(b.AppendBinary(make([]byte, 0, len(data))), data) {
		return IngestBatch{}, fmt.Errorf("core: ingest batch: not in canonical form")
	}
	return b, nil
}

// Ingest folds one batch into the engine, returning the engine at the
// next version; the receiver is untouched and keeps serving its own
// version. The materialized state — groups, stats, inverted index — is
// byte-identical to core.Build on the augmented dataset: encoding
// depends on global popularity and activity quantiles and the minimum
// support on the user count, so exactness requires re-running the
// deterministic pipeline, not patching structures in place. (The cheap
// lossy-counting preview of what a batch will change is IngestPreview;
// the documented exactness boundary lives there.)
func (e *Engine) Ingest(b IngestBatch) (*Engine, error) {
	if b.Empty() {
		return nil, fmt.Errorf("core: ingest: empty batch")
	}
	d2, err := e.Data.Append(b.Users, b.Actions)
	if err != nil {
		return nil, err
	}
	ne, err := Build(d2, e.cfg)
	if err != nil {
		return nil, fmt.Errorf("core: ingest: rebuild: %w", err)
	}
	ne.lineage = make([]BatchDigest, len(e.lineage)+1)
	copy(ne.lineage, e.lineage)
	ne.lineage[len(e.lineage)] = b.Digest()
	return ne, nil
}

// BuildWithLineage runs Build on a dataset that already has an
// ingestion lineage folded in, stamping the result with that lineage —
// the snapshot delta-replay path. Folding every batch into the dataset
// first and building once is exactly equal to ingesting them one at a
// time: each Ingest is itself defined as Build on the augmented
// dataset, so only the final build is observable.
func BuildWithLineage(d *dataset.Dataset, cfg PipelineConfig, lineage []BatchDigest) (*Engine, error) {
	e, err := Build(d, cfg)
	if err != nil {
		return nil, err
	}
	e.lineage = append([]BatchDigest(nil), lineage...)
	return e, nil
}

// IngestPreview dry-runs a batch through the streaming miner (Jin &
// Agrawal lossy counting, §II-A): it appends the batch to a copy of
// the dataset, re-encodes, and feeds every transaction through
// stream.Miner.Process, returning the Snapshot candidate set. This is
// the discovery channel for evolving data — bounded memory, one pass
// — and it carries the lossy-counting bound, not exactness: no
// frequent itemset ≥ σ·N is missed, every reported count is within ε·N
// of true, but membership bitsets and stats are not materialized.
// Committing the batch with Ingest always rebuilds exactly. The
// returned vocabulary is the augmented encoding's — the one the
// itemsets' term ids live in; callers render labels against it, never
// against the receiver's vocabulary (term ids are not stable across
// versions).
func (e *Engine) IngestPreview(b IngestBatch, cfg stream.Config) ([]stream.FrequentItemset, *groups.Vocab, error) {
	d2, err := e.Data.Append(b.Users, b.Actions)
	if err != nil {
		return nil, nil, err
	}
	tx, err := mining.Encode(d2, e.cfg.Encode)
	if err != nil {
		return nil, nil, fmt.Errorf("core: ingest preview: encode: %w", err)
	}
	m := stream.New(cfg)
	scratch := make([]groups.TermID, 0, 32)
	for _, terms := range tx.PerUser {
		// Process sorts and dedups in place; feed it a copy so the
		// encoded transactions stay pristine.
		scratch = append(scratch[:0], terms...)
		m.Process(scratch)
	}
	return m.Snapshot(), tx.Vocab, nil
}

// GroupTouched reports whether a group from an older engine version is
// affected by the newer space: its description vanished, or its
// membership changed. Count equality plus word-prefix equality proves
// identity even though the newer space's bitsets live in a larger
// universe — equal counts leave no room for extra members in the new
// words.
func GroupTouched(g *groups.Group, newSpace *groups.Space) bool {
	ng := newSpace.ByDescription(g.Desc)
	if ng == nil {
		return true
	}
	if ng.Members.Count() != g.Members.Count() {
		return true
	}
	ow, nw := g.Members.Words(), ng.Members.Words()
	if len(nw) < len(ow) {
		return true
	}
	for i, w := range ow {
		if nw[i] != w {
			return true
		}
	}
	return false
}

// DiffSpaces counts the groups of the new space that are discovered
// (description absent from old) or changed (present with different
// membership) relative to the old space — the summary an ingest
// response reports.
func DiffSpaces(old, new *groups.Space) (discovered, changed int) {
	for _, ng := range new.Groups() {
		og := old.ByDescription(ng.Desc)
		if og == nil {
			discovered++
			continue
		}
		if GroupTouched(og, new) {
			changed++
		}
	}
	return discovered, changed
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedKeysF(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// batchDecoder is a minimal sticky-error reader over the canonical
// batch encoding.
type batchDecoder struct {
	data []byte
	pos  int
	err  error
}

func (d *batchDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("truncated varint at %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// count reads a length and bounds it by the bytes remaining, so a
// corrupt length cannot drive a huge allocation.
func (d *batchDecoder) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.data)-d.pos) {
		d.err = fmt.Errorf("count %d exceeds remaining %d bytes", v, len(d.data)-d.pos)
		return 0
	}
	return int(v)
}

func (d *batchDecoder) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n
	return s
}

func (d *batchDecoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data)-d.pos < 8 {
		d.err = fmt.Errorf("truncated float at %d", d.pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}
