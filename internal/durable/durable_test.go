package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/core"
	"graphitti/internal/faultfs"
	"graphitti/internal/persist"
	"graphitti/internal/rtree"
	"graphitti/internal/workload"
)

// fastOpts avoids fsync in unit tests (crash safety is exercised by the
// torn-tail and kill tests, which use real sync).
var fastOpts = Options{NoSync: true, CompactThreshold: -1}

func seedStore(t *testing.T, s *Store, anns int) {
	t.Helper()
	if err := s.Apply(persist.OntologyOp(workload.BrainOntology())); err != nil {
		t.Fatal(err)
	}
	cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(persist.SystemOp(cs)); err != nil {
		t.Fatal(err)
	}
	im, err := imaging.NewImage("img-0", "atlas", rtree.Rect2D(0, 0, 1000, 1000), imaging.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(persist.ImageOp(im)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < anns; i++ {
		x := float64(i)
		m, err := s.MarkImageRegion("img-0", rtree.Rect2D(x, x, x+5, x+5))
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Commit(s.NewAnnotation().
			Creator("tester").Date("2026-07-29").
			Body(fmt.Sprintf("region annotation %d", i)).
			Refer(m).
			OntologyRef("nif", "deep-cerebellar-nuclei"))
		if err != nil {
			t.Fatal(err)
		}
	}
}

func mustEqualStores(t *testing.T, got, want *core.Store) {
	t.Helper()
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("stats differ:\n got %+v\nwant %+v", g, w)
	}
	gs, err := persist.Export(got)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := persist.Export(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("snapshots differ:\n got %+v\nwant %+v", gs, ws)
	}
}

func TestReopenReplaysLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, s, 10)
	if err := s.DeleteAnnotation(3); err != nil {
		t.Fatal(err)
	}
	want := s.Core()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.ReplayedRecords == 0 || st.TornBytes != 0 {
		t.Fatalf("unexpected recovery stats %+v", st)
	}
	mustEqualStores(t, s2.Core(), want)

	// IDs must continue where the first incarnation stopped, despite the
	// deletion gap.
	m, err := s2.MarkImageRegion("img-0", rtree.Rect2D(900, 900, 905, 905))
	if err != nil {
		t.Fatal(err)
	}
	ann, err := s2.Commit(s2.NewAnnotation().Creator("x").Date("2026-07-29").Body("post-reopen").Refer(m))
	if err != nil {
		t.Fatal(err)
	}
	if ann.ID != 11 {
		t.Fatalf("post-reopen annotation got ID %d, want 11", ann.ID)
	}
}

// TestReplayEqualsSerial: a store logs the whole recovery scenario —
// rules mid-stream, so most commits and deletes run the delta path,
// deletions included — with no checkpoint, and is reopened. The replay,
// one writer session over the log, leaves the export, derived table,
// stats and epoch that the same ops leave applied one session each to a
// fresh in-memory store.
func TestReplayEqualsSerial(t *testing.T) {
	ops := workload.RecoveryScenario(workload.DefaultRecovery)
	dir := t.TempDir()
	opts := Options{CompactThreshold: -1, NoSync: true}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.ApplyOps(s, ops); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	serial := core.NewStore()
	if err := workload.ApplyOps(workload.AsSink(serial), ops); err != nil {
		t.Fatal(err)
	}

	replayed, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if st := replayed.Stats(); st.ReplayedRecords != len(ops) || st.SnapshotSeq != 0 {
		t.Fatalf("replayed %d records over checkpoint %d, want all %d over none", st.ReplayedRecords, st.SnapshotSeq, len(ops))
	}
	got := replayed.Core()
	mustEqualStores(t, got, serial)
	if g, w := slices.Collect(got.View().DerivedEach), slices.Collect(serial.View().DerivedEach); len(w) == 0 || !reflect.DeepEqual(g, w) {
		t.Fatalf("derived tables differ: replay %d facts, serial %d", len(g), len(w))
	}
	if g, w := got.View().Epoch(), serial.View().Epoch(); g != w || g != uint64(len(ops)) {
		t.Fatalf("epoch after replay %d, serial %d, ops %d", g, w, len(ops))
	}
}

func TestReopenAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{NoSync: true, CompactThreshold: 4 << 10}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, s, 40) // enough to cross 4KB several times
	if s.Stats().Compactions == 0 {
		t.Fatalf("no compaction at threshold %d (log %d bytes)",
			opts.CompactThreshold, s.Stats().LogSize)
	}
	want := s.Core()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Stats().SnapshotSeq == 0 {
		t.Fatal("manifest lost the checkpoint seq")
	}
	mustEqualStores(t, s2.Core(), want)
}

// TestStaleLogAfterCompactionCrash simulates a crash between the
// manifest commit and log rotation: the snapshot covers ops that are
// still in the old log. Replay must skip them instead of double-applying.
func TestStaleLogAfterCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, s, 8)
	// Write snapshot+manifest as compaction would, then "crash" without
	// rotating the log.
	snap, err := persist.Export(s.Core())
	if err != nil {
		t.Fatal(err)
	}
	seq := s.Stats().Seq
	if err := WriteFileSync(nil, filepath.Join(dir, snapName(seq)), func(f *os.File) error {
		_, err := fmt.Fprint(f, mustJSON(snap))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileSync(nil, filepath.Join(dir, manifestFile), func(f *os.File) error {
		_, err := fmt.Fprint(f, mustJSON(manifest{SnapshotSeq: seq, Snapshot: snapName(seq)}))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	want := s.Core()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.SkippedRecords == 0 {
		t.Fatalf("expected skipped records for a stale log, got %+v", st)
	}
	if st.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records the snapshot already covers", st.ReplayedRecords)
	}
	mustEqualStores(t, s2.Core(), want)
}

// TestOrphanSnapshotBeforeManifestCrash simulates the other compaction
// crash window: the new checkpoint file was written but the manifest was
// never committed. The orphan must be ignored (and cleaned up) and the
// full log replayed against the previous checkpoint.
func TestOrphanSnapshotBeforeManifestCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, s, 6)
	if err := s.Compact(); err != nil { // a real committed checkpoint at seq C
		t.Fatal(err)
	}
	committed := s.Stats().SnapshotSeq
	seedStore2 := func() { // a few more logged ops past the checkpoint
		m, err := s.MarkImageRegion("img-0", rtree.Rect2D(500, 500, 505, 505))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(s.NewAnnotation().Creator("x").Date("2026-07-29").Body("past checkpoint").Refer(m)); err != nil {
			t.Fatal(err)
		}
	}
	seedStore2()
	// "Crash" mid-compaction: orphan checkpoint file, manifest untouched.
	snap, err := persist.Export(s.Core())
	if err != nil {
		t.Fatal(err)
	}
	orphan := snapName(s.Stats().Seq)
	if err := WriteFileSync(nil, filepath.Join(dir, orphan), func(f *os.File) error {
		_, err := fmt.Fprint(f, mustJSON(snap))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	want := s.Core()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.SnapshotSeq != committed {
		t.Fatalf("recovered snapshotSeq %d, want the committed checkpoint %d", st.SnapshotSeq, committed)
	}
	if st.ReplayedRecords == 0 {
		t.Fatal("expected the post-checkpoint ops to replay from the log")
	}
	mustEqualStores(t, s2.Core(), want)
	if _, err := os.Stat(filepath.Join(dir, orphan)); !os.IsNotExist(err) {
		t.Fatalf("orphan checkpoint %s not cleaned up (err=%v)", orphan, err)
	}
}

// TestTornTailTruncated cuts bytes off the log end and verifies open
// recovers the longest valid prefix and can append afterwards.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, s, 6)
	preTornAnns := s.Core().Stats().Annotations
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logFile)
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.TornBytes == 0 {
		t.Fatalf("expected torn bytes, got %+v", st)
	}
	got := s2.Core().Stats().Annotations
	if got != preTornAnns-1 {
		t.Fatalf("recovered %d annotations, want %d (last record torn)", got, preTornAnns-1)
	}
	// The torn op is gone; the store must accept new writes at its seq.
	m, err := s2.MarkImageRegion("img-0", rtree.Rect2D(1, 1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Commit(s2.NewAnnotation().Creator("x").Date("2026-07-29").Body("after torn tail").Refer(m)); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreCheckpointsImmediately(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, s, 5)

	// Build a different store to restore from.
	other := core.NewStore()
	if err := other.RegisterOntology(workload.EnzymeOntology()); err != nil {
		t.Fatal(err)
	}
	snap, err := persist.Export(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	mustEqualStores(t, s.Core(), other)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the restored state (not the seeded one) must come back.
	s2, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	mustEqualStores(t, s2.Core(), other)
}

// TestBuilderOutlivesRestore: a builder started before the pipeline's core
// store is swapped out — by Restore, or by Reopen after a fault — commits
// into the store that replaced it. The builder belongs to no store; its
// commit is an op, applied by whichever core the pipeline holds then.
func TestBuilderOutlivesRestore(t *testing.T) {
	for _, swap := range []string{"restore", "reopen"} {
		t.Run(swap, func(t *testing.T) {
			sc := faultfs.NewScript()
			s, err := Open(t.TempDir(), Options{CompactThreshold: -1, Inject: sc})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			seedStore(t, s, 2)
			m, err := s.MarkImageRegion("img-0", rtree.Rect2D(500, 500, 510, 510))
			if err != nil {
				t.Fatal(err)
			}
			b := s.NewAnnotation().Creator("x").Date("2026-10-15").Body("started before the swap").Refer(m)

			before := s.Core()
			switch swap {
			case "restore":
				snap, err := persist.Export(before)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Restore(snap); err != nil {
					t.Fatal(err)
				}
			case "reopen":
				sc.FailAt(faultfs.OpSync, 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpSync, syscall.EIO)})
				if err := s.DeleteAnnotation(1); !errors.Is(err, ErrDegraded) {
					t.Fatalf("delete under a failing fsync: %v", err)
				}
				if _, err := s.Reopen(); err != nil {
					t.Fatal(err)
				}
			}
			if s.Core() == before {
				t.Fatalf("%s kept the core store", swap)
			}
			ann, err := s.Commit(b)
			if err != nil {
				t.Fatalf("commit after %s: %v", swap, err)
			}
			if got, err := s.Core().View().Annotation(ann.ID); err != nil || got != ann {
				t.Fatalf("committed annotation %d not served by the current core: %v", ann.ID, err)
			}
		})
	}
}

// TestReusedReferentReplays: a commit that reuses a committed referent is
// logged as its op, which carries the mark as the caller holds it, and
// replays to the same store. A bare ID is not the mark: reusing one is
// refused before anything is logged, since replay finds a reused referent
// by its mark.
func TestReusedReferentReplays(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, s, 1)
	shared, err := s.Core().View().Referent(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.MarkImageRegion("img-0", rtree.Rect2D(300, 300, 310, 310))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(s.NewAnnotation().Creator("x").Date("2026-10-15").Body("reuses").Refer(m).Refer(shared)); err != nil {
		t.Fatal(err)
	}
	bare := &core.Referent{ID: shared.ID}
	if _, err := s.Commit(s.NewAnnotation().Creator("x").Date("2026-10-15").Body("bare").Refer(bare)); !errors.Is(err, core.ErrBadMark) {
		t.Fatalf("reuse by a bare referent ID: %v, want ErrBadMark", err)
	}
	want := s.Core()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	mustEqualStores(t, s2.Core(), want)
}

func TestConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactThreshold: -1}) // real fsync + group commit
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, s, 0)
	const writers, perWriter = 8, 10
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				x := float64(g*100 + i)
				m, err := s.MarkImageRegion("img-0", rtree.Rect2D(x, x, x+1, x+1))
				if err != nil {
					t.Errorf("mark: %v", err)
					return
				}
				_, err = s.Commit(s.NewAnnotation().
					Creator(fmt.Sprintf("w%d", g)).Date("2026-07-29").
					Body(fmt.Sprintf("concurrent %d/%d", g, i)).Refer(m))
				if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	want := s.Core()
	if want.Stats().Annotations != writers*perWriter {
		t.Fatalf("committed %d annotations, want %d", want.Stats().Annotations, writers*perWriter)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	mustEqualStores(t, s2.Core(), want)
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestOpenRemovesTmpOrphans: a kill -9 while a compaction fills its
// checkpoint or its manifest leaves the tmp file behind, never renamed. Open
// deletes both orphans, through the injector — a delete it fails leaves
// the orphan for the next Open — and opens to the committed state.
func TestOpenRemovesTmpOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, s, 5)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteAnnotation(2); err != nil {
		t.Fatal(err)
	}
	want := s.Core()
	orphans := []string{
		filepath.Join(dir, snapName(s.Stats().Seq)+".tmp"),
		filepath.Join(dir, manifestFile+".tmp"),
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, o := range orphans {
		if err := os.WriteFile(o, []byte("GSNAP\x02 cut short"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	refuse := faultfs.NewScript().
		FailPath(faultfs.OpRemove, ".tmp", 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpRemove, syscall.EIO)}).
		FailPath(faultfs.OpRemove, ".tmp", 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpRemove, syscall.EIO)})
	for _, inj := range []faultfs.Injector{refuse, nil} {
		s, err := Open(dir, Options{NoSync: true, CompactThreshold: -1, Inject: inj})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualStores(t, s.Core(), want)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for _, o := range orphans {
			_, err := os.Stat(o)
			if left := err == nil; left != (inj != nil) {
				t.Errorf("deletes refused: %v; %s left behind: %v", inj != nil, filepath.Base(o), left)
			}
		}
	}
}

// TestCorruptCheckpointRefused: a checkpoint with one byte flipped — in
// its deflate stream or in its header — or cut short makes Open fail with
// an error that names the file, never panic and never open a store that
// serves what the damage made of it. So does damage the checksum was
// recomputed over, which only the decoder can catch: a deflate stream cut
// short, or bytes after its final block.
func TestCorruptCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, s, 5)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	name := snapName(s.Stats().SnapshotSeq)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(good, []byte("GSNAP\x02")) {
		t.Fatalf("checkpoint starts %q, want format 2", good[:6])
	}
	flip := func(i int) []byte {
		b := bytes.Clone(good)
		b[i] ^= 0x20
		return b
	}
	// reseal appends the checksum of body, so only the decoder can refuse
	// what body does wrong.
	reseal := func(body []byte) []byte {
		return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	}
	const head = len("GSNAP\x02")
	stream := good[head : len(good)-4]
	for form, c := range map[string]struct {
		bad []byte
		why string // what the error says, for the damage the checksum covers
	}{
		"flipped":                {bad: flip(head + len(stream)/2)},
		"flipped header":         {bad: flip(0)},
		"truncated":              {bad: good[:len(good)/2]},
		"stream cut short":       {reseal(bytes.Clone(good[:head+len(stream)/2])), "ends early"},
		"bytes after the stream": {reseal(append(bytes.Clone(good[:len(good)-4]), 0, 0, 0)), "3 bytes after"},
	} {
		t.Run(form, func(t *testing.T) {
			d := t.TempDir()
			if err := os.CopyFS(d, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, name), c.bad, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(d, fastOpts)
			if err == nil {
				s.Close()
				t.Fatal("a damaged checkpoint opened")
			}
			if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), c.why) {
				t.Fatalf("the error does not name %s and say %q: %v", name, c.why, err)
			}
		})
	}
}

// TestNonFiniteFloatRefused: an op carrying a NaN or an infinity is refused
// before it is applied, so the pipeline neither serves it nor tries to log
// it: it stays healthy, the next op commits, and the export still works.
func TestNonFiniteFloatRefused(t *testing.T) {
	s, err := Open(t.TempDir(), fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seedStore(t, s, 1)

	g := interact.NewGraph("ppi")
	for _, id := range []string{"P1", "P2"} {
		if _, err := g.AddMolecule(id, id, interact.ProteinMol); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddInteraction("P1", "P2", "binds", math.NaN()); err != nil {
		t.Fatal(err)
	}
	cs, err := imaging.NewCoordinateSystem("unbounded", rtree.Rect2D(0, 0, math.Inf(1), 10))
	if err != nil {
		t.Fatal(err)
	}
	reg := imaging.Identity(2)
	reg.Scale[0] = math.NaN()
	im, err := imaging.NewImage("img-nan", "atlas", rtree.Rect2D(0, 0, 10, 10), reg)
	if err != nil {
		t.Fatal(err)
	}
	for name, op := range map[string]persist.Op{
		"NaN interaction score": persist.GraphOp(g),
		"+Inf system bound":     persist.SystemOp(cs),
		"NaN registration":      persist.ImageOp(im),
	} {
		if err := s.Apply(op); err == nil {
			t.Errorf("%s: applied", name)
		}
		if h := s.Health(); h.State != StateHealthy {
			t.Fatalf("%s: the pipeline is %s: %s", name, h.State, h.Reason)
		}
	}
	v := s.Core().View()
	if _, err := v.InteractionGraph("ppi"); err == nil {
		t.Error("the refused graph is served")
	}
	m, err := s.MarkImageRegion("img-0", rtree.Rect2D(20, 20, 30, 30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(s.NewAnnotation().Creator("x").Date("2026-10-15").Body("after the refusals").Refer(m)); err != nil {
		t.Fatalf("commit after the refusals: %v", err)
	}
	if err := persist.Write(s.Core(), io.Discard); err != nil {
		t.Fatalf("export after the refusals: %v", err)
	}
}
