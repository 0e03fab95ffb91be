package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/core"
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
	if err := writeFileSync(nil, filepath.Join(dir, snapName(seq)), func(f *os.File) error {
		_, err := fmt.Fprint(f, mustJSON(snap))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := writeFileSync(nil, filepath.Join(dir, manifestFile), func(f *os.File) error {
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
	if err := writeFileSync(nil, filepath.Join(dir, orphan), func(f *os.File) error {
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
