// Package store is the warm-start layer between the offline pipeline
// and online serving: it serializes a fully built core.Engine —
// dataset tables, mined group space, and the transaction encoding —
// into a versioned binary snapshot and loads it back bit-identical to
// a fresh core.Build, so restarts and multi-dataset deployments skip
// the expensive mining stage entirely.
//
// # Format
//
// A snapshot is a 44-byte header followed by framed sections:
//
//	magic "VXSNAP\x00\n" | version u32 | fingerprint [32]byte
//	then, in fixed order: SCHM USER ITEM ACTS VOCB TXNS GRPS META DLOG
//	then zero or more DLTA sections, then END
//	each section: tag u32 | payload length u64 | payload | CRC-32 (IEEE)
//
// META holds only the base build's timings. The pipeline configuration
// is not stored: every load takes the caller's (see Content
// addressing).
//
// Everything is little-endian; counts and ids are varints; bitsets
// travel as their raw 64-bit word arrays (internal/bitset.Words), so
// the hot structures round-trip with bulk copies instead of
// reflection-driven encoding. Every section is CRC-checked on load —
// a flipped bit fails loudly instead of serving corrupt groups.
//
// The GRPS section carries a per-record byte-offset table, so loading
// decodes group member sets in parallel via internal/parallel (each
// record writes only its own slot — the repo's slot-write determinism
// contract). Derived structures that are cheap and deterministic to
// rebuild (user→group inversion, tid-lists, the size order) are
// reconstructed rather than stored: they cannot disagree with the
// snapshot, and the snapshot stays ~40% smaller. The engine's
// similarity index stores nothing (index.New), so no section carries
// it.
//
// # Content addressing
//
// The header fingerprint is a SHA-256 over the dataset content and the
// result-affecting pipeline configuration (see ComputeFingerprint).
// BuildOrLoad and LoadFreshBytes take the caller's dataset and
// configuration, compute the fingerprint from them, and compare it
// before trusting a snapshot: a stale file — new data, changed mining
// bounds — is rebuilt and overwritten, never silently served. The
// engine is then decoded, or its deltas replayed, under that same
// configuration, so the fingerprint and the configuration cannot come
// from different places. The other sections are a cache of that
// deterministic build: the mined VOCB, TXNS and GRPS, and the dataset
// sections (which a compaction rewrites to hold the folded batches)
// are trusted under their CRCs and the fingerprint chain, not compared
// with the caller's dataset.
//
// # Versions
//
// Version 2 added the ingestion-log sections (DLOG, DLTA), the chained
// fingerprint, and the pipeline configuration in META. Version 3
// dropped the INDX section and the index fraction and build time from
// META. Version 4 dropped the miner name and the default-miner flag
// from META. Version 5 dropped the pipeline configuration from META: a
// forged META could make a base+delta file replay under other mining
// bounds than its fingerprint covered. A file of any other version is
// refused and rebuilt.
//
// # Live datasets: deltas and compaction
//
// An ingested batch (core.IngestBatch) persists as one DLTA section
// appended in place by AppendDeltaFile — a few bytes of log instead of
// a multi-megabyte base rewrite, which is what makes ingestion cheap
// at the storage layer. The header fingerprint then covers the whole
// chain (ChainFingerprint): base fingerprint folded with each batch
// digest, in order. Loading a snapshot with pending deltas replays
// them — fold every batch into the base dataset, run the pipeline once
// — which is provably identical to the sequence of Engine.Ingest calls
// that produced them. The DLOG section records digests of batches
// already compacted *into* the base sections, so the chain stays
// verifiable from the original spec dataset even after BuildOrLoad
// rewrites the base (it compacts once pending deltas reach
// CompactThreshold).
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"vexus/internal/bitset"
	"vexus/internal/core"
	"vexus/internal/dataset"
	"vexus/internal/groups"
	"vexus/internal/index"
	"vexus/internal/mining"
	"vexus/internal/parallel"
)

// Version is the snapshot format version; every loader rejects files
// written by a different one (snapshots are cache, not archive —
// rebuild). The package doc's Versions section has the history.
const Version = 5

// CompactThreshold is the number of pending DLTA sections at which
// BuildOrLoad folds the deltas into a fresh base: below it a warm
// start pays one delta replay (cheap — the batches are tiny next to
// the base); at it the snapshot is rewritten so replay cost cannot
// grow without bound. The compacted batches' digests move into the
// DLOG section, keeping the fingerprint chain verifiable from the
// original spec dataset.
const CompactThreshold = 4

var magic = [8]byte{'V', 'X', 'S', 'N', 'A', 'P', 0, '\n'}

const headerLen = len(magic) + 4 + 32

// Header is the cheap-to-read prefix of a snapshot: enough to decide
// freshness without touching the (potentially large) body.
type Header struct {
	Version     uint32
	Fingerprint Fingerprint
}

// ErrStale reports a snapshot whose fingerprint does not match the
// dataset + configuration the caller is serving.
var ErrStale = errors.New("store: snapshot fingerprint mismatch (dataset or pipeline config changed)")

// Save writes eng as a snapshot. fp is the *base* fingerprint — the
// content address of the pre-ingestion dataset + config; the header is
// stamped with the chain of fp and the engine's lineage, and the
// lineage digests are materialized in the DLOG section (the engine's
// state already contains those batches, so no DLTA sections are
// written — Save always produces a compacted snapshot). For an engine
// fresh from core.Build the lineage is empty and the header carries fp
// itself.
func Save(w io.Writer, eng *core.Engine, fp Fingerprint) error {
	lineage := eng.Lineage()
	head := ChainFingerprint(fp, lineage)
	var hdr [headerLen]byte
	copy(hdr[:], magic[:])
	binary.LittleEndian.PutUint32(hdr[len(magic):], Version)
	copy(hdr[len(magic)+4:], head[:])
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	sections := []struct {
		tag     sectionTag
		payload []byte
	}{
		{tagSchema, encodeSchema(eng.Data.Schema)},
		{tagUsers, encodeUsers(eng.Data)},
		{tagItems, encodeItems(eng.Data)},
		{tagAction, encodeActions(eng.Data)},
		{tagVocab, encodeVocab(eng.Space.Vocab)},
		{tagTxns, encodeTransactions(eng.Tx)},
		{tagGroups, encodeGroups(eng.Space)},
		{tagMeta, encodeMeta(eng)},
		{tagDlog, encodeDlog(lineage)},
		{tagEnd, nil},
	}
	for _, s := range sections {
		if err := writeSection(w, s.tag, s.payload); err != nil {
			return fmt.Errorf("store: writing section %q: %w", tagString(s.tag), err)
		}
	}
	return nil
}

// load is the one snapshot decoder behind every loader. It walks the
// sections once, verifying each CRC, and when base is non-nil it
// compares the header with the chain of base over the lineage the file
// records (the DLOG digests, then the SHA-256 of each DLTA payload,
// which is that batch's digest) before it decodes any other payload: a
// mismatch is ErrStale. It then decodes the file, or replays its
// pending deltas, under cfg, which is the caller's and becomes the
// engine's configuration; the file carries none. It also returns the
// number of pending deltas, which BuildOrLoad's compaction policy
// needs.
//
// A snapshot with pending DLTA sections takes the replay path: only
// the dataset tables are decoded from the base, every batch is folded
// into the dataset, and the pipeline runs once — identical to the
// Engine.Ingest sequence that wrote the deltas, because Ingest itself
// is defined as a build on the augmented dataset. The mined sections
// (VOCB, TXNS, GRPS) are CRC-checked but not decoded on that path.
func load(data []byte, base *Fingerprint, cfg core.PipelineConfig) (*core.Engine, int, error) {
	hdr, err := parseHeader(data)
	if err != nil {
		return nil, 0, err
	}
	sr := &sectionReader{b: data, off: headerLen}
	payload := map[sectionTag][]byte{}
	for _, tag := range []sectionTag{
		tagSchema, tagUsers, tagItems, tagAction, tagVocab,
		tagTxns, tagGroups, tagMeta, tagDlog,
	} {
		p, err := sr.next(tag)
		if err != nil {
			return nil, 0, err
		}
		payload[tag] = p
	}
	var deltas [][]byte
	for {
		tag, err := sr.peek()
		if err != nil {
			return nil, 0, err
		}
		if tag != tagDelta {
			break
		}
		p, err := sr.next(tagDelta)
		if err != nil {
			return nil, 0, err
		}
		deltas = append(deltas, p)
	}
	if _, err := sr.next(tagEnd); err != nil {
		return nil, 0, err
	}
	if n := len(data) - sr.off; n != 0 {
		// No writer leaves bytes past END (AppendDeltaFile refuses such
		// a file), so they mean a foreign or damaged file.
		return nil, 0, fmt.Errorf("store: %d trailing bytes after the END section", n)
	}

	dlog, err := decodeDlog(payload[tagDlog])
	if err != nil {
		return nil, 0, err
	}
	lineage := dlog
	for _, p := range deltas {
		lineage = append(lineage, core.BatchDigest(sha256.Sum256(p)))
	}
	switch {
	case base != nil && hdr.Fingerprint != ChainFingerprint(*base, lineage):
		return nil, 0, ErrStale
	case base == nil && len(deltas) > 0:
		return nil, 0, fmt.Errorf("store: %d pending deltas need the caller's pipeline configuration to replay", len(deltas))
	}
	timings, err := decodeMeta(payload[tagMeta])
	if err != nil {
		return nil, 0, err
	}

	if len(deltas) > 0 {
		d, err := decodeDataset(payload)
		if err != nil {
			return nil, 0, err
		}
		for i, p := range deltas {
			b, err := core.DecodeIngestBatch(p)
			if err != nil {
				return nil, 0, fmt.Errorf("store: delta %d: %w", i, err)
			}
			if d, err = d.Append(b.Users, b.Actions); err != nil {
				return nil, 0, fmt.Errorf("store: replaying delta %d: %w", i, err)
			}
		}
		// The replay build reports its own timings, not the base's.
		eng, err := core.BuildWithLineage(d, cfg, lineage)
		if err != nil {
			return nil, 0, fmt.Errorf("store: rebuilding from %d deltas: %w", len(deltas), err)
		}
		return eng, len(deltas), nil
	}

	// Independent sections decode concurrently (fork-join); within the
	// groups section each record decodes into its own slot.
	workers := cfg.Workers
	var (
		d      *dataset.Dataset
		vocab  *groups.Vocab
		tx     *mining.Transactions
		gs     []*groups.Group
		spaceN int
		errs   [3]error
	)
	parallel.Do(workers,
		func() { d, errs[0] = decodeDataset(payload) },
		func() { vocab, tx, errs[1] = decodeVocabTransactions(payload) },
		func() { gs, spaceN, errs[2] = decodeGroups(payload[tagGroups], workers) },
	)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	if d.NumUsers() != spaceN || tx.N != spaceN {
		return nil, 0, fmt.Errorf("store: universe mismatch: %d users, %d transactions, %d-user group space",
			d.NumUsers(), tx.N, spaceN)
	}
	for gi, g := range gs {
		for _, id := range g.Desc {
			if int(id) < 0 || int(id) >= vocab.Len() {
				return nil, 0, fmt.Errorf("store: group %d references term %d outside vocab of %d", gi, id, vocab.Len())
			}
		}
	}
	space, err := groups.NewSpaceParallel(spaceN, vocab, gs, workers)
	if err != nil {
		return nil, 0, fmt.Errorf("store: rebuilding group space: %w", err)
	}
	info := core.RestoreInfo{Timings: timings, Config: cfg, Lineage: dlog}
	return core.RestoreEngine(d, tx, space, index.New(space), info), 0, nil
}

func parseHeader(b []byte) (Header, error) {
	if len(b) < headerLen {
		return Header{}, fmt.Errorf("store: %d-byte file is shorter than the %d-byte header", len(b), headerLen)
	}
	for i := range magic {
		if b[i] != magic[i] {
			return Header{}, fmt.Errorf("store: not a vexus snapshot (bad magic)")
		}
	}
	h := Header{Version: binary.LittleEndian.Uint32(b[len(magic):])}
	copy(h.Fingerprint[:], b[len(magic)+4:headerLen])
	if h.Version != Version {
		return Header{}, fmt.Errorf("store: snapshot version %d, this build reads %d — rebuild the snapshot", h.Version, Version)
	}
	return h, nil
}

// SaveFile writes a snapshot atomically: to path+".tmp", synced, then
// renamed over path, so a crash mid-write never leaves a half snapshot
// where BuildOrLoad would find it.
func SaveFile(path string, eng *core.Engine, fp Fingerprint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := Save(bw, eng, fp); err == nil {
		err = bw.Flush()
	} else {
		_ = bw.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile decodes the snapshot at path without verifying it against
// any dataset or configuration: it checks the section CRCs only, and
// refuses a file with pending deltas, which need a configuration to
// replay. Its engine is restored with no pipeline configuration (a
// zero RestoreInfo.Config but for the worker count, so Config reports
// the defaults, not what the file was built under), and it must not
// Ingest. It exists only for wallbench's traced run, which times
// the decode; ROADMAP item 1 moves that run to LoadFreshBytes and
// deletes LoadFile. Every other load goes through BuildOrLoad or
// LoadFreshBytes.
func LoadFile(path string, workers int) (*core.Engine, Header, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Header{}, err
	}
	hdr, err := parseHeader(data)
	if err != nil {
		return nil, Header{}, err
	}
	eng, _, err := load(data, nil, core.PipelineConfig{Workers: workers})
	return eng, hdr, err
}

// LoadFreshBytes reassembles the engine of an in-memory snapshot — a
// warm join's stream (internal/serve) — under the caller's spec
// dataset d and configuration cfg. It computes the base fingerprint of
// (d, cfg) and returns it with the engine, and it loads only if the
// header equals the chain of that fingerprint over the lineage the
// snapshot records. Anything less — a truncated transfer, a stream for
// a different dataset or configuration, a corrupt section — returns an
// error (ErrStale for a fingerprint mismatch) and no engine: the caller
// fails closed. The engine is decoded, or its deltas replayed, under
// cfg, which cfg.Workers also parallelizes.
func LoadFreshBytes(data []byte, d *dataset.Dataset, cfg core.PipelineConfig) (*core.Engine, Fingerprint, error) {
	fp := ComputeFingerprint(d, cfg)
	eng, _, err := load(data, &fp, cfg)
	return eng, fp, err
}

// endFrameLen is the byte length of the END section frame (12-byte
// header + 4-byte CRC of the empty payload) that closes every
// snapshot; AppendDeltaFile overwrites it in place.
const endFrameLen = 16

// AppendDeltaFile appends one ingestion batch to the snapshot at path
// as a DLTA section, in place: the END frame (always the file's last
// 16 bytes) is overwritten with DLTA + a fresh END, the data is
// synced, and only then is the header fingerprint patched to the new
// chain head and synced again. head must be the chain over the base
// fingerprint and the post-ingest engine's full lineage. The write
// order makes a crash at any point safe: a torn tail or an unpatched
// header both leave the recomputed chain disagreeing with the header,
// which reads as stale and falls back to a rebuild — never a silently
// wrong engine.
//
// This is the storage half of what makes ingestion incremental: a
// batch persists in O(batch) bytes while the multi-megabyte base
// stays untouched.
func AppendDeltaFile(path string, b core.IngestBatch, head Fingerprint) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var hb [headerLen]byte
	if _, err := io.ReadFull(f, hb[:]); err != nil {
		return fmt.Errorf("store: append delta: reading header: %w", err)
	}
	if _, err := parseHeader(hb[:]); err != nil {
		return fmt.Errorf("store: append delta: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < int64(headerLen+endFrameLen) {
		return fmt.Errorf("store: append delta: %d-byte file has no END frame", st.Size())
	}
	var end [endFrameLen]byte
	if _, err := f.ReadAt(end[:], st.Size()-endFrameLen); err != nil {
		return fmt.Errorf("store: append delta: reading END frame: %w", err)
	}
	if sectionTag(binary.LittleEndian.Uint32(end[:])) != tagEnd ||
		binary.LittleEndian.Uint64(end[4:]) != 0 {
		return fmt.Errorf("store: append delta: file does not end in an END frame (torn write?)")
	}

	payload := b.AppendBinary(nil)
	var tail []byte
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(tagDelta))
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(payload)))
	tail = append(tail, hdr[:]...)
	tail = append(tail, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	tail = append(tail, crc[:]...)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(tagEnd))
	binary.LittleEndian.PutUint64(hdr[4:], 0)
	tail = append(tail, hdr[:]...)
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(nil))
	tail = append(tail, crc[:]...)

	if _, err := f.WriteAt(tail, st.Size()-endFrameLen); err != nil {
		return fmt.Errorf("store: append delta: writing section: %w", err)
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if _, err := f.WriteAt(head[:], int64(len(magic)+4)); err != nil {
		return fmt.Errorf("store: append delta: patching header: %w", err)
	}
	return f.Sync()
}

// BuildOrLoad is the warm-start entry point: it loads the snapshot at
// path when one exists and its fingerprint matches the given dataset +
// configuration, and otherwise runs core.Build and writes a fresh
// snapshot for the next start. It returns the engine, whether it was
// a warm load, and the base fingerprint of (d, cfg), which the caller
// needs to chain later deltas onto. A warm engine is decoded, or its
// deltas replayed, under cfg: the file carries no configuration.
//
// A stale, corrupt, truncated, or version-skewed snapshot is never
// served — it falls through to a rebuild that overwrites it. Absent
// and stale files are the expected cache misses and rebuild silently;
// anything else (CRC failure, truncation, version skew) is surfaced as
// a warning alongside the freshly built engine, as is a snapshot that
// could not be written after the build — in both cases the engine is
// valid and err != nil means "serve it, but tell the operator".
// path == "" disables snapshotting and always builds.
//
// A warm load that finds CompactThreshold or more pending deltas
// compacts: the just-replayed engine is rewritten as a fresh base
// (lineage digests moving into DLOG), so the next start replays
// nothing. A failed compaction is a warning, not an error — the
// replayed engine is correct either way.
func BuildOrLoad(path string, d *dataset.Dataset, cfg core.PipelineConfig) (*core.Engine, bool, Fingerprint, error) {
	fp := ComputeFingerprint(d, cfg)
	var warn error
	if path != "" {
		data, err := os.ReadFile(path)
		var (
			eng     *core.Engine
			pending int
		)
		if err == nil {
			eng, pending, err = load(data, &fp, cfg)
		}
		if err == nil {
			if pending >= CompactThreshold {
				if err := SaveFile(path, eng, fp); err != nil {
					warn = fmt.Errorf("store: loaded %d deltas but could not compact %s: %w", pending, path, err)
				}
			}
			return eng, true, fp, warn
		}
		if !errors.Is(err, os.ErrNotExist) && !errors.Is(err, ErrStale) {
			warn = fmt.Errorf("store: ignoring unusable snapshot %s (rebuilding): %w", path, err)
		}
	}
	eng, err := core.Build(d, cfg)
	if err != nil {
		return nil, false, fp, err
	}
	if path != "" {
		if err := SaveFile(path, eng, fp); err != nil {
			warn = errors.Join(warn, fmt.Errorf("store: engine built but snapshot not written: %w", err))
		}
	}
	return eng, false, fp, warn
}

// ---------------------------------------------------------------------------
// Section encoders.

func encodeSchema(s *dataset.Schema) []byte {
	var e enc
	e.uvarint(uint64(len(s.Attrs)))
	for i := range s.Attrs {
		a := &s.Attrs[i]
		e.str(a.Name)
		e.u8(uint8(a.Kind))
		e.uvarint(uint64(len(a.Values)))
		for _, v := range a.Values {
			e.str(v)
		}
		e.uvarint(uint64(len(a.Bins)))
		for _, b := range a.Bins {
			e.f64(b)
		}
	}
	return e.b
}

func encodeUsers(d *dataset.Dataset) []byte {
	var e enc
	e.uvarint(uint64(d.NumUsers()))
	for i := range d.Users {
		u := &d.Users[i]
		e.str(u.ID)
		e.uvarint(uint64(len(u.Demo)))
		for _, v := range u.Demo {
			e.svarint(int64(v))
		}
	}
	return e.b
}

func encodeItems(d *dataset.Dataset) []byte {
	var e enc
	e.uvarint(uint64(d.NumItems()))
	for i := range d.Items {
		e.str(d.Items[i].ID)
		e.str(d.Items[i].Label)
	}
	return e.b
}

func encodeActions(d *dataset.Dataset) []byte {
	var e enc
	e.uvarint(uint64(d.NumActions()))
	for i := range d.Actions {
		a := &d.Actions[i]
		e.uvarint(uint64(a.User))
		e.uvarint(uint64(a.Item))
		e.f64(a.Value)
		e.svarint(a.Time)
	}
	return e.b
}

func encodeVocab(v *groups.Vocab) []byte {
	var e enc
	e.uvarint(uint64(v.Len()))
	for id := groups.TermID(0); int(id) < v.Len(); id++ {
		t := v.Term(id)
		e.str(t.Field)
		e.str(t.Value)
	}
	return e.b
}

func encodeTransactions(tx *mining.Transactions) []byte {
	var e enc
	e.uvarint(uint64(tx.N))
	for _, terms := range tx.PerUser {
		e.uvarint(uint64(len(terms)))
		prev := groups.TermID(0)
		for _, id := range terms {
			e.uvarint(uint64(id - prev)) // ascending → deltas
			prev = id
		}
	}
	return e.b
}

// encodeGroups writes the mined space: a per-record offset table (for
// parallel decode) followed by each group's description and raw member
// words. The user→group inversion is rebuilt on load.
func encodeGroups(space *groups.Space) []byte {
	var records enc
	offsets := make([]uint64, space.Len())
	for gid := 0; gid < space.Len(); gid++ {
		offsets[gid] = uint64(len(records.b))
		g := space.Group(gid)
		records.uvarint(uint64(len(g.Desc)))
		prev := groups.TermID(0)
		for _, id := range g.Desc {
			records.uvarint(uint64(id - prev))
			prev = id
		}
		records.words(g.Members.Words())
	}
	var e enc
	e.uvarint(uint64(space.NumUsers))
	e.uvarint(uint64(space.Len()))
	for _, off := range offsets {
		e.u64(off)
	}
	e.b = append(e.b, records.b...)
	return e.b
}

// encodeMeta writes the engine's build timings. The pipeline
// configuration is the caller's at every load, so no section stores it.
func encodeMeta(eng *core.Engine) []byte {
	var e enc
	e.svarint(int64(eng.Timings.Encode))
	e.svarint(int64(eng.Timings.Mine))
	return e.b
}

// encodeDlog writes the digests of batches already folded into the
// base sections.
func encodeDlog(lineage []core.BatchDigest) []byte {
	var e enc
	e.uvarint(uint64(len(lineage)))
	for _, dg := range lineage {
		e.b = append(e.b, dg[:]...)
	}
	return e.b
}

// ---------------------------------------------------------------------------
// Section decoders.

func decodeDataset(payload map[sectionTag][]byte) (*dataset.Dataset, error) {
	schema, err := decodeSchema(payload[tagSchema])
	if err != nil {
		return nil, err
	}
	users, err := decodeUsers(payload[tagUsers])
	if err != nil {
		return nil, err
	}
	items, err := decodeItems(payload[tagItems])
	if err != nil {
		return nil, err
	}
	actions, err := decodeActions(payload[tagAction])
	if err != nil {
		return nil, err
	}
	d, err := dataset.Restore(schema, users, items, actions)
	if err != nil {
		return nil, fmt.Errorf("store: restoring dataset: %w", err)
	}
	return d, nil
}

func decodeSchema(b []byte) (*dataset.Schema, error) {
	d := dec{b: b}
	attrs := make([]dataset.Attribute, d.count(1))
	for i := range attrs {
		attrs[i].Name = d.str()
		attrs[i].Kind = dataset.AttrKind(d.u8())
		attrs[i].Values = make([]string, d.count(1))
		for j := range attrs[i].Values {
			attrs[i].Values[j] = d.str()
		}
		attrs[i].Bins = make([]float64, d.count(8))
		for j := range attrs[i].Bins {
			attrs[i].Bins[j] = d.f64()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	s, err := dataset.NewSchema(attrs...)
	if err != nil {
		return nil, fmt.Errorf("store: restoring schema: %w", err)
	}
	return s, nil
}

func decodeUsers(b []byte) ([]dataset.User, error) {
	d := dec{b: b}
	users := make([]dataset.User, d.count(2))
	for i := range users {
		users[i].ID = d.str()
		users[i].Demo = make([]int, d.count(1))
		for j := range users[i].Demo {
			users[i].Demo[j] = int(d.svarint())
		}
	}
	return users, d.err
}

func decodeItems(b []byte) ([]dataset.Item, error) {
	d := dec{b: b}
	items := make([]dataset.Item, d.count(2))
	for i := range items {
		items[i].ID = d.str()
		items[i].Label = d.str()
	}
	return items, d.err
}

func decodeActions(b []byte) ([]dataset.Action, error) {
	d := dec{b: b}
	actions := make([]dataset.Action, d.count(11))
	for i := range actions {
		actions[i].User = int(d.uvarint())
		actions[i].Item = int(d.uvarint())
		actions[i].Value = d.f64()
		actions[i].Time = d.svarint()
	}
	return actions, d.err
}

func decodeVocabTransactions(payload map[sectionTag][]byte) (*groups.Vocab, *mining.Transactions, error) {
	d := dec{b: payload[tagVocab]}
	vocab := groups.NewVocab()
	n := d.count(2)
	for i := 0; i < n; i++ {
		field, value := d.str(), d.str()
		if d.err != nil {
			break
		}
		if id := vocab.Intern(field, value); int(id) != i {
			return nil, nil, fmt.Errorf("store: duplicate vocab term %s=%s", field, value)
		}
	}
	if d.err != nil {
		return nil, nil, d.err
	}

	t := dec{b: payload[tagTxns]}
	perUser := make([][]groups.TermID, t.count(1))
	for u := range perUser {
		terms := make([]groups.TermID, t.count(1))
		prev := groups.TermID(0)
		for j := range terms {
			prev += groups.TermID(t.uvarint())
			terms[j] = prev
		}
		if t.err != nil {
			return nil, nil, t.err
		}
		if len(terms) > 0 && int(terms[len(terms)-1]) >= vocab.Len() {
			return nil, nil, fmt.Errorf("store: user %d carries term %d outside vocab of %d", u, terms[len(terms)-1], vocab.Len())
		}
		perUser[u] = terms
	}
	if t.err != nil {
		return nil, nil, t.err
	}
	return vocab, mining.NewTransactions(vocab, perUser), nil
}

// decodeGroups rebuilds the group records. The offset table makes each
// record independently addressable, so records decode across workers
// with each one writing only its own gs[i] slot.
func decodeGroups(b []byte, workers int) ([]*groups.Group, int, error) {
	d := dec{b: b}
	numUsers := int(d.uvarint())
	n := d.count(8)
	offsets := make([]uint64, n)
	for i := range offsets {
		offsets[i] = d.u64()
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	records := b[d.off:]
	gs := make([]*groups.Group, n)
	errs := make([]error, n)
	parallel.Range(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if offsets[i] > uint64(len(records)) {
				errs[i] = fmt.Errorf("store: group %d offset %d overruns section", i, offsets[i])
				continue
			}
			rd := dec{b: records, off: int(offsets[i])}
			desc := make(groups.Description, rd.count(1))
			prev := groups.TermID(0)
			for j := range desc {
				prev += groups.TermID(rd.uvarint())
				desc[j] = prev
			}
			members, err := bitset.FromWords(numUsers, rd.words())
			if rd.err != nil {
				errs[i] = rd.err
				continue
			}
			if err != nil {
				errs[i] = fmt.Errorf("store: group %d members: %w", i, err)
				continue
			}
			gs[i] = &groups.Group{Desc: desc, Members: members}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return gs, numUsers, nil
}

func decodeMeta(b []byte) (core.Timings, error) {
	d := dec{b: b}
	t := core.Timings{
		Encode: time.Duration(d.svarint()),
		Mine:   time.Duration(d.svarint()),
	}
	return t, d.err
}

func decodeDlog(b []byte) ([]core.BatchDigest, error) {
	d := dec{b: b}
	n := d.count(32)
	if d.err != nil {
		return nil, d.err
	}
	out := make([]core.BatchDigest, n)
	for i := range out {
		if d.off+32 > len(b) {
			return nil, fmt.Errorf("store: truncated DLOG digest %d", i)
		}
		copy(out[i][:], b[d.off:])
		d.off += 32
	}
	return out, nil
}
