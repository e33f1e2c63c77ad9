package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vexus/internal/action"
	"vexus/internal/core"
	"vexus/internal/datagen"
	"vexus/internal/dataset"
	"vexus/internal/greedy"
	"vexus/internal/groups"
	"vexus/internal/parallel"
)

// workerCounts pins the slot-write determinism contract: every load
// must be bit-identical at 1 (sequential), 2, and 8 workers — the dev
// container may have a single core, so this exercises scheduling, not
// speedup.
var workerCounts = []int{1, 2, 8}

var (
	fixOnce sync.Once
	fixData = struct {
		eng *core.Engine
		cfg core.PipelineConfig
		err error
	}{}
)

func testPipelineConfig() core.PipelineConfig {
	cfg := core.DefaultPipelineConfig()
	cfg.Encode = datagen.DBAuthorsEncodeOptions()
	cfg.MinSupportFrac = 0.02
	return cfg
}

// builtEngine builds the shared evaluation engine once (immutable).
func builtEngine(t testing.TB) (*core.Engine, core.PipelineConfig) {
	t.Helper()
	fixOnce.Do(func() {
		d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 400, Seed: 7})
		if err != nil {
			fixData.err = err
			return
		}
		fixData.cfg = testPipelineConfig()
		fixData.eng, fixData.err = core.Build(d, fixData.cfg)
	})
	if fixData.err != nil {
		t.Fatal(fixData.err)
	}
	return fixData.eng, fixData.cfg
}

// requireEnginesIdentical asserts the full bit-identical contract:
// dataset tables, vocabulary, group space, inverted index, and the
// greedy precomputation (initial display order) must all match.
func requireEnginesIdentical(t *testing.T, want, got *core.Engine) {
	t.Helper()
	// Dataset.
	if got.Data.NumUsers() != want.Data.NumUsers() ||
		got.Data.NumItems() != want.Data.NumItems() ||
		got.Data.NumActions() != want.Data.NumActions() {
		t.Fatalf("dataset shape: %d/%d/%d vs %d/%d/%d",
			got.Data.NumUsers(), got.Data.NumItems(), got.Data.NumActions(),
			want.Data.NumUsers(), want.Data.NumItems(), want.Data.NumActions())
	}
	for i := range want.Data.Users {
		w, g := &want.Data.Users[i], &got.Data.Users[i]
		if w.ID != g.ID {
			t.Fatalf("user %d id %q vs %q", i, g.ID, w.ID)
		}
		for j := range w.Demo {
			if w.Demo[j] != g.Demo[j] {
				t.Fatalf("user %d demo %d: %d vs %d", i, j, g.Demo[j], w.Demo[j])
			}
		}
	}
	for i := range want.Data.Actions {
		if want.Data.Actions[i] != got.Data.Actions[i] {
			t.Fatalf("action %d: %+v vs %+v", i, got.Data.Actions[i], want.Data.Actions[i])
		}
	}
	// Vocabulary.
	if got.Space.Vocab.Len() != want.Space.Vocab.Len() {
		t.Fatalf("vocab %d terms vs %d", got.Space.Vocab.Len(), want.Space.Vocab.Len())
	}
	for id := groups.TermID(0); int(id) < want.Space.Vocab.Len(); id++ {
		if want.Space.Vocab.Term(id) != got.Space.Vocab.Term(id) {
			t.Fatalf("vocab term %d differs", id)
		}
	}
	// Transactions.
	if got.Tx.N != want.Tx.N {
		t.Fatalf("tx N %d vs %d", got.Tx.N, want.Tx.N)
	}
	for u := range want.Tx.PerUser {
		w, g := want.Tx.PerUser[u], got.Tx.PerUser[u]
		if len(w) != len(g) {
			t.Fatalf("user %d carries %d terms vs %d", u, len(g), len(w))
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("user %d term %d: %d vs %d", u, j, g[j], w[j])
			}
		}
	}
	for tid := range want.Tx.Tids {
		if !want.Tx.Tids[tid].Equal(got.Tx.Tids[tid]) {
			t.Fatalf("tid-list %d differs", tid)
		}
	}
	// Group space, including the derived user→group inversion.
	if got.Space.Len() != want.Space.Len() || got.Space.NumUsers != want.Space.NumUsers {
		t.Fatalf("space %d groups / %d users vs %d / %d",
			got.Space.Len(), got.Space.NumUsers, want.Space.Len(), want.Space.NumUsers)
	}
	for gid := 0; gid < want.Space.Len(); gid++ {
		wg, gg := want.Space.Group(gid), got.Space.Group(gid)
		if gg.ID != wg.ID || !wg.Desc.Equal(gg.Desc) {
			t.Fatalf("group %d description differs", gid)
		}
		if !wg.Members.Equal(gg.Members) {
			t.Fatalf("group %d members differ", gid)
		}
	}
	for u := 0; u < want.Space.NumUsers; u++ {
		w, g := want.Space.GroupsOfUser(u), got.Space.GroupsOfUser(u)
		if len(w) != len(g) {
			t.Fatalf("user %d in %d groups vs %d", u, len(g), len(w))
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("user %d group list slot %d: %d vs %d", u, j, g[j], w[j])
			}
		}
	}
	// Inverted index: the optimizer's candidate pool for every group,
	// exact float bits and ids. Each group's lookups write only its own
	// slot, so the groups spread over the CPUs.
	pool := greedy.DefaultConfig().CandidatePool
	diffs := make([]string, want.Space.Len())
	parallel.Range(want.Space.Len(), 0, func(_, lo, hi int) {
		for gid := lo; gid < hi; gid++ {
			w, g := want.Index.Neighbors(gid, pool), got.Index.Neighbors(gid, pool)
			if len(w) != len(g) {
				diffs[gid] = fmt.Sprintf("group %d has %d neighbors vs %d", gid, len(g), len(w))
				continue
			}
			for j := range w {
				if w[j] != g[j] {
					diffs[gid] = fmt.Sprintf("group %d neighbor %d: %+v vs %+v", gid, j, g[j], w[j])
					break
				}
			}
		}
	})
	for _, d := range diffs {
		if d != "" {
			t.Fatal(d)
		}
	}
	// Greedy precomputation (initial display order).
	requireSameSelections(t, want, got)
}

// requireSameSelections drives identical deterministic exploration
// steps (TimeLimit 0) through both engines and requires identical
// greedy selections — ids, scores, float bits.
func requireSameSelections(t *testing.T, want, got *core.Engine) {
	t.Helper()
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 0
	ws, gs := action.New(want, cfg), action.New(got, cfg)
	for _, s := range []*action.Session{ws, gs} {
		if err := action.ApplyQuiet(s, action.Action{Op: action.Start}); err != nil {
			t.Fatal(err)
		}
	}
	wShown, gShown := ws.Sess.Shown(), gs.Sess.Shown()
	if len(wShown) != len(gShown) {
		t.Fatalf("initial display %d groups vs %d", len(gShown), len(wShown))
	}
	for i := range wShown {
		if wShown[i] != gShown[i] {
			t.Fatalf("initial display slot %d: group %d vs %d", i, gShown[i], wShown[i])
		}
	}
	focal := wShown[0]
	for step := 0; step < 3; step++ {
		wRes, err := action.Apply(ws, action.Action{Op: action.Explore, Group: focal})
		if err != nil {
			t.Fatal(err)
		}
		gRes, err := action.Apply(gs, action.Action{Op: action.Explore, Group: focal})
		if err != nil {
			t.Fatal(err)
		}
		wIDs, gIDs := ws.Sess.Shown(), gs.Sess.Shown()
		if len(wIDs) != len(gIDs) {
			t.Fatalf("step %d: %d ids vs %d", step, len(gIDs), len(wIDs))
		}
		for i := range wIDs {
			if wIDs[i] != gIDs[i] {
				t.Fatalf("step %d slot %d: group %d vs %d", step, i, gIDs[i], wIDs[i])
			}
		}
		if *wRes.Metrics != *gRes.Metrics {
			t.Fatalf("step %d metrics differ: %+v vs %+v", step, *gRes.Metrics, *wRes.Metrics)
		}
		if len(wIDs) == 0 {
			break
		}
		focal = wIDs[0]
	}
}

func TestRoundTripBitIdentical(t *testing.T) {
	eng, cfg := builtEngine(t)
	fp := ComputeFingerprint(eng.Data, cfg)

	var buf bytes.Buffer
	if err := Save(&buf, eng, fp); err != nil {
		t.Fatal(err)
	}
	if hdr, err := ReadHeader(bytes.NewReader(buf.Bytes())); err != nil || hdr.Version != Version || hdr.Fingerprint != fp {
		t.Fatalf("header %+v, %v", hdr, err)
	}
	for _, workers := range workerCounts {
		loaded, gotFP, err := LoadFreshBytes(buf.Bytes(), eng.Data, withWorkers(cfg, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if gotFP != fp {
			t.Fatalf("workers=%d: returned fingerprint %x, want %x", workers, gotFP, fp)
		}
		requireEnginesIdentical(t, eng, loaded)
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	eng, cfg := builtEngine(t)
	fp := ComputeFingerprint(eng.Data, cfg)
	var a, b bytes.Buffer
	if err := Save(&a, eng, fp); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b, eng, fp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same engine differ byte-for-byte")
	}
	// And a snapshot of a loaded engine equals the original snapshot:
	// nothing is lost or reordered across a round trip.
	loaded, _, err := LoadFreshBytes(a.Bytes(), eng.Data, withWorkers(cfg, 2))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := Save(&c, loaded, fp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("re-saving a loaded engine changes the snapshot bytes")
	}
}

func TestBuildOrLoadWarmStart(t *testing.T) {
	_, cfg := builtEngine(t)
	d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "authors.snap")

	cold, warm, _, err := BuildOrLoad(path, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("first BuildOrLoad reported a warm start")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	reloaded, warm, _, err := BuildOrLoad(path, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("second BuildOrLoad rebuilt instead of loading")
	}
	requireEnginesIdentical(t, cold, reloaded)
}

// TestStaleSnapshotRebuilds: a snapshot written under one configuration
// must never be served for another — the content-address mismatch
// triggers a rebuild whose result matches a fresh Build exactly.
func TestStaleSnapshotRebuilds(t *testing.T) {
	_, cfgA := builtEngine(t)
	d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "authors.snap")
	if _, _, _, err := BuildOrLoad(path, d, cfgA); err != nil {
		t.Fatal(err)
	}

	cfgB := cfgA
	cfgB.MinSupportFrac = 0.05 // coarser mining: different group space
	fresh, err := core.Build(d, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	got, warm, _, err := BuildOrLoad(path, d, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("stale snapshot served as a warm start")
	}
	requireEnginesIdentical(t, fresh, got)

	// The stale file was overwritten: the next start under cfgB is warm.
	if _, warm, _, err = BuildOrLoad(path, d, cfgB); err != nil || !warm {
		t.Fatalf("rebuilt snapshot not warm on next start: warm=%v err=%v", warm, err)
	}
	// And explicit loading under cfgA now reports staleness.
	if _, err := loadFile(path, d, cfgA); err != ErrStale {
		t.Fatalf("load under the old config: %v, want ErrStale", err)
	}
}

// TestVersion2SnapshotRebuilds: snapshots in the previous formats —
// version 2, with its INDX section of materialized prefixes, and
// version 3, whose META carried the miner name and a default-miner
// flag — are refused, even under a matching fingerprint, and
// BuildOrLoad replaces them with a fresh build in the current format.
func TestVersion2SnapshotRebuilds(t *testing.T) {
	eng, cfg := builtEngine(t)
	d := eng.Data
	fp := ComputeFingerprint(d, cfg)
	var cur bytes.Buffer
	if err := Save(&cur, eng, fp); err != nil {
		t.Fatal(err)
	}
	raw := cur.Bytes()

	// reframe rewrites the current file's header version and passes
	// each section through edit, which writes it as that version did.
	reframe := func(version uint32, edit func(w *bytes.Buffer, tag sectionTag, payload []byte)) []byte {
		var old bytes.Buffer
		old.Write(raw[:headerLen])
		binary.LittleEndian.PutUint32(old.Bytes()[len(magic):], version)
		for off := headerLen; off < len(raw); {
			tag := sectionTag(binary.LittleEndian.Uint32(raw[off:]))
			n := int(binary.LittleEndian.Uint64(raw[off+4:]))
			edit(&old, tag, raw[off+12:off+12+n])
			off += 12 + n + 4
		}
		return old.Bytes()
	}
	write := func(w *bytes.Buffer, tag sectionTag, payload []byte) {
		if err := writeSection(w, tag, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Version 2: INDX between GRPS and META.
	const tagIndexV2 sectionTag = 0x58444e49 // "INDX"
	v2 := reframe(2, func(w *bytes.Buffer, tag sectionTag, payload []byte) {
		if tag == tagMeta {
			write(w, tagIndexV2, make([]byte, 16))
		}
		write(w, tag, payload)
	})
	// Version 3: META opens with the miner name, and the default-miner
	// flag follows the two build timings.
	v3 := reframe(3, func(w *bytes.Buffer, tag sectionTag, payload []byte) {
		if tag == tagMeta {
			timings := dec{b: payload}
			timings.svarint()
			timings.svarint()
			var meta enc
			meta.str("lcm")
			meta.b = append(meta.b, payload[:timings.off]...)
			meta.u8(1)
			payload = append(meta.b, payload[timings.off:]...)
		}
		write(w, tag, payload)
	})

	for _, c := range []struct {
		version int
		file    []byte
	}{{2, v2}, {3, v3}} {
		path := filepath.Join(t.TempDir(), "authors.snap")
		if err := os.WriteFile(path, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadFile(path, d, cfg); err == nil {
			t.Fatalf("version-%d snapshot loaded", c.version)
		}
		got, warm, _, err := BuildOrLoad(path, d, cfg)
		if got == nil {
			t.Fatalf("rebuild of a version-%d snapshot failed: %v", c.version, err)
		}
		if warm {
			t.Fatalf("version-%d snapshot served as a warm start", c.version)
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", c.version)) {
			t.Fatalf("version skew not reported: %v", err)
		}
		requireEnginesIdentical(t, eng, got)
		if hdr, err := ReadHeaderFile(path); err != nil || hdr.Version != Version {
			t.Fatalf("snapshot not rewritten in the current format: %+v, %v", hdr, err)
		}
		if _, warm, _, err := BuildOrLoad(path, d, cfg); err != nil || !warm {
			t.Fatalf("rewritten snapshot not warm on next start: warm=%v err=%v", warm, err)
		}
	}
}

// TestCorruptSnapshotRejectedAndRebuilt: a flipped payload byte must
// fail the section CRC on load, and BuildOrLoad must fall back to a
// rebuild rather than serve the corrupt file.
func TestCorruptSnapshotRejectedAndRebuilt(t *testing.T) {
	eng, cfg := builtEngine(t)
	d := eng.Data
	path := filepath.Join(t.TempDir(), "authors.snap")
	fp := ComputeFingerprint(d, cfg)
	if err := SaveFile(path, eng, fp); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff // flip a byte mid-file, past the header
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFile(path, 2); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
	got, warm, _, err := BuildOrLoad(path, d, cfg)
	if got == nil {
		t.Fatalf("rebuild after corruption failed: %v", err)
	}
	// Corruption is not a silent cache miss: the rebuild succeeds but
	// the unusable snapshot is reported.
	if err == nil {
		t.Fatal("corrupt snapshot rebuilt without surfacing a warning")
	}
	if warm {
		t.Fatal("corrupt snapshot reported as warm start")
	}
	requireEnginesIdentical(t, eng, got)

	// The overwritten snapshot serves the next start warm and clean.
	if _, warm, _, err := BuildOrLoad(path, d, cfg); err != nil || !warm {
		t.Fatalf("snapshot not repaired by rebuild: warm=%v err=%v", warm, err)
	}
}

func TestTruncatedSnapshotRejected(t *testing.T) {
	eng, cfg := builtEngine(t)
	var buf bytes.Buffer
	if err := Save(&buf, eng, ComputeFingerprint(eng.Data, cfg)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, 7, headerLen - 1, headerLen + 5, len(raw) / 3, len(raw) - 2} {
		if _, _, err := LoadFreshBytes(raw[:cut], eng.Data, cfg); err == nil {
			t.Fatalf("truncation at %d bytes loaded without error", cut)
		}
	}
}

// TestTrailingBytesRejected: bytes after the END section, which no
// writer produces, fail the load instead of being ignored.
func TestTrailingBytesRejected(t *testing.T) {
	eng, cfg := builtEngine(t)
	var buf bytes.Buffer
	if err := Save(&buf, eng, ComputeFingerprint(eng.Data, cfg)); err != nil {
		t.Fatal(err)
	}
	raw := append(buf.Bytes(), 0)
	if _, _, err := LoadFreshBytes(raw, eng.Data, cfg); err == nil {
		t.Fatal("snapshot with a trailing byte loaded without error")
	}
}

// TestFingerprintGolden pins the content address of one fixed dataset
// under the default pipeline configuration to the hex recorded before
// the miner stopped being an option: removing that option left every
// default-config snapshot address, and so every deployed snapshot,
// where it was.
func TestFingerprintGolden(t *testing.T) {
	d, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const want = "fe200aa47135aa964e65cfdd6b3d52f346df8fbecd437e06975a0b5f2996acf5"
	if fp := ComputeFingerprint(d, core.DefaultPipelineConfig()); hex.EncodeToString(fp[:]) != want {
		t.Fatalf("default-config fingerprint %x, want %s", fp, want)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	eng, cfg := builtEngine(t)
	base := ComputeFingerprint(eng.Data, cfg)

	modified := cfg
	modified.MinSupportFrac = 0.01
	if ComputeFingerprint(eng.Data, modified) == base {
		t.Fatal("support change not reflected in fingerprint")
	}
	// Workers must NOT change the address: any count is bit-identical.
	modified = cfg
	modified.Workers = 8
	if ComputeFingerprint(eng.Data, modified) != base {
		t.Fatal("worker count changed the fingerprint")
	}
	// Nor the index fraction: the engine's index stores no prefix.
	modified = cfg
	modified.IndexFraction = 0.2
	if ComputeFingerprint(eng.Data, modified) != base {
		t.Fatal("index fraction changed the fingerprint")
	}
	// Normalized defaults hash like their explicit values.
	modified = cfg
	modified.MaxLen, modified.MaxGroups, modified.IndexFraction = 0, 0, 0
	explicit := cfg
	explicit.MaxLen, explicit.MaxGroups, explicit.IndexFraction = 4, 100_000, 0.10
	if ComputeFingerprint(eng.Data, modified) != ComputeFingerprint(eng.Data, explicit) {
		t.Fatal("default-normalized config hashes differently from explicit defaults")
	}
	// A different dataset must change the address.
	other, err := datagen.DBAuthors(datagen.DBAuthorsConfig{NumAuthors: 400, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ComputeFingerprint(other, cfg) == base {
		t.Fatal("dataset change not reflected in fingerprint")
	}
}

// TestSessionReplayAgainstSnapshotEngine pins the replay contract
// across the snapshot boundary: a click trail that follows the
// optimizer's own output (explore, explore one of the selected groups,
// unlearn, bookmark), saved against the freshly built engine, must
// replay bit-identically against a snapshot-loaded engine at every
// worker count.
func TestSessionReplayAgainstSnapshotEngine(t *testing.T) {
	eng, cfg := builtEngine(t)
	gcfg := greedy.DefaultConfig()
	gcfg.TimeLimit = 0 // deterministic replay

	orig := action.New(eng, gcfg)
	apply := func(a action.Action) {
		t.Helper()
		if _, err := action.Apply(orig, a); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
	}
	apply(action.Action{Op: action.Start})
	apply(action.Action{Op: action.Explore, Group: orig.Sess.Shown()[0]})
	if len(orig.Sess.Shown()) == 0 {
		t.Skip("no candidates on fixture engine")
	}
	picked := orig.Sess.Shown()[0]
	apply(action.Action{Op: action.Explore, Group: picked})
	apply(action.Action{Op: action.Unlearn, Field: "gender", Value: "male"})
	apply(action.Action{Op: action.BookmarkGroup, Group: picked})
	var trail bytes.Buffer
	if err := orig.Save(&trail); err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := Save(&snap, eng, ComputeFingerprint(eng.Data, cfg)); err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		loaded, _, err := LoadFreshBytes(snap.Bytes(), eng.Data, withWorkers(cfg, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		replayed := action.New(loaded, gcfg)
		if err := replayed.Load(bytes.NewReader(trail.Bytes())); err != nil {
			t.Fatalf("workers=%d: replay: %v", workers, err)
		}
		if replayed.Sess.Focal() != orig.Sess.Focal() {
			t.Fatalf("workers=%d: focal %d vs %d", workers, replayed.Sess.Focal(), orig.Sess.Focal())
		}
		wShown, gShown := orig.Sess.Shown(), replayed.Sess.Shown()
		if len(wShown) != len(gShown) {
			t.Fatalf("workers=%d: shown %d vs %d", workers, len(gShown), len(wShown))
		}
		for i := range wShown {
			if wShown[i] != gShown[i] {
				t.Fatalf("workers=%d: shown slot %d: %d vs %d", workers, i, gShown[i], wShown[i])
			}
		}
		if len(replayed.Sess.History()) != len(orig.Sess.History()) {
			t.Fatalf("workers=%d: history %d vs %d", workers, len(replayed.Sess.History()), len(orig.Sess.History()))
		}
		if !replayed.Sess.Memo().HasGroup(picked) {
			t.Fatalf("workers=%d: bookmark lost in replay", workers)
		}
		male := loaded.Space.Vocab.Lookup("gender", "male")
		if male >= 0 && replayed.Sess.Feedback().TermScore(male) != 0 {
			t.Fatalf("workers=%d: unlearned term re-learned", workers)
		}
	}
}

func BenchmarkSnapshotLoad(b *testing.B) {
	eng, cfg := builtEngine(b)
	fp := ComputeFingerprint(eng.Data, cfg)
	var buf bytes.Buffer
	if err := Save(&buf, eng, fp); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := load(buf.Bytes(), &fp, withWorkers(cfg, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestActionLogReplayAgainstSnapshotEngine is the STATS twin of the
// test above: a trail with focus + brush saved through internal/action
// replays bit-identically against snapshot-loaded engines at every
// worker count, open focus view and mutation counter included.
func TestActionLogReplayAgainstSnapshotEngine(t *testing.T) {
	eng, cfg := builtEngine(t)
	gcfg := greedy.DefaultConfig()
	gcfg.TimeLimit = 0 // deterministic replay

	orig := action.New(eng, gcfg)
	attr := eng.Data.Schema.Attrs[0].Name
	val := eng.Data.Schema.Attrs[0].Values[0]
	for _, a := range []action.Action{
		{Op: action.Start},
		{Op: action.Explore, Group: 0},
		{Op: action.Focus, Group: 0},
		{Op: action.Brush, Attr: attr, Values: []string{val}},
		{Op: action.Unlearn, Field: "gender", Value: "male"},
		{Op: action.BookmarkGroup, Group: 0},
	} {
		if _, err := action.Apply(orig, a); err != nil {
			t.Fatalf("%v: %v", a, err)
		}
	}
	var trail bytes.Buffer
	if err := orig.Save(&trail); err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := Save(&snap, eng, ComputeFingerprint(eng.Data, cfg)); err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		loaded, _, err := LoadFreshBytes(snap.Bytes(), eng.Data, withWorkers(cfg, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		replayed := action.New(loaded, gcfg)
		if err := replayed.Load(bytes.NewReader(trail.Bytes())); err != nil {
			t.Fatalf("workers=%d: replay: %v", workers, err)
		}
		if replayed.Sess.Focal() != orig.Sess.Focal() {
			t.Fatalf("workers=%d: focal %d vs %d", workers, replayed.Sess.Focal(), orig.Sess.Focal())
		}
		wShown, gShown := orig.Sess.Shown(), replayed.Sess.Shown()
		if len(wShown) != len(gShown) {
			t.Fatalf("workers=%d: shown %d vs %d", workers, len(gShown), len(wShown))
		}
		for i := range wShown {
			if wShown[i] != gShown[i] {
				t.Fatalf("workers=%d: shown slot %d: %d vs %d", workers, i, gShown[i], wShown[i])
			}
		}
		if replayed.Focus == nil || replayed.Focus.SelectedCount() != orig.Focus.SelectedCount() {
			t.Fatalf("workers=%d: brushed focus view not restored", workers)
		}
		if !replayed.Sess.Memo().HasGroup(0) {
			t.Fatalf("workers=%d: bookmark lost in replay", workers)
		}
		if replayed.Mutations != orig.Mutations {
			t.Fatalf("workers=%d: mutation counter %d vs %d", workers, replayed.Mutations, orig.Mutations)
		}
	}
}

// withWorkers returns cfg with its worker count set to workers.
func withWorkers(cfg core.PipelineConfig, workers int) core.PipelineConfig {
	cfg.Workers = workers
	return cfg
}

// loadFile reads the snapshot at path and loads it under the spec
// dataset d and configuration cfg, as a warm join loads its stream.
func loadFile(path string, d *dataset.Dataset, cfg core.PipelineConfig) (*core.Engine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	eng, _, err := LoadFreshBytes(data, d, cfg)
	return eng, err
}

// ReadHeader parses just the snapshot header.
func ReadHeader(r io.Reader) (Header, error) {
	var b [headerLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return Header{}, fmt.Errorf("store: reading header: %w", err)
	}
	return parseHeader(b[:])
}

// ReadHeaderFile reads just the header of a snapshot on disk.
func ReadHeaderFile(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	return ReadHeader(f)
}
