package shard

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// registerDomainSeq registers a DNA sequence addressed in domain so
// MarkDomainInterval has a covering owner there.
func registerDomainSeq(t *testing.T, s *Store, id, domain string) {
	t.Helper()
	sq, err := seq.New(id, seq.DNA, strings.Repeat("ACGT", 64))
	if err != nil {
		t.Fatal(err)
	}
	sq.Domain = domain
	if err := s.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreWaitsForRoutedWriters pins the Restore/commit barrier: an
// in-flight routed mutation on any shard blocks the core-pointer swap,
// and a commit issued while Restore is parked waits and lands in the
// restored state — the interleaving that, without the per-shard writer
// latch, could acknowledge a write into a core the swap had already
// replaced.
func TestRestoreWaitsForRoutedWriters(t *testing.T) {
	s := New(2)
	// A domain owned by shard 0 — where the concurrent commit will land.
	dom := ""
	for i := 0; dom == ""; i++ {
		if d := fmt.Sprintf("dom-%d", i); s.router.ShardOfKey(d) == 0 {
			dom = d
		}
	}
	registerDomainSeq(t, s, "live-seq", dom)

	// The snapshot to restore: one committed annotation, plus dom's
	// sequence so the concurrent commit's mark stays covered afterwards.
	src := New(1)
	registerDomainSeq(t, src, "seed-seq", "seed-dom")
	registerDomainSeq(t, src, "live-seq", dom)
	seedRef, err := src.MarkDomainInterval("seed-dom", interval.Interval{Lo: 0, Hi: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Commit(core.NewBuilder().Creator("tester").Date("2026-08-08").Body("seed").Refer(seedRef)); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}

	r, err := s.MarkDomainInterval(dom, interval.Interval{Lo: 10, Hi: 20})
	if err != nil {
		t.Fatal(err)
	}

	// A routed writer in flight on shard 1 must park Restore on that
	// shard's latch.
	s.smu[1].RLock()
	restored := make(chan error, 1)
	go func() { restored <- s.Restore(snap) }()
	select {
	case err := <-restored:
		t.Fatalf("Restore completed under an in-flight shard writer: err=%v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// A commit routed to shard 0 — whose write latch the parked Restore
	// already holds — must wait for the swap, not slip into the core
	// about to be replaced.
	acked := make(chan uint64, 1)
	cerr := make(chan error, 1)
	go func() {
		ann, err := s.Commit(core.NewBuilder().Creator("tester").Date("2026-08-08").Body("during-restore").Refer(r))
		if err != nil {
			cerr <- err
			return
		}
		acked <- ann.ID
	}()
	select {
	case id := <-acked:
		t.Fatalf("commit %d acknowledged while Restore held the shard latches", id)
	case err := <-cerr:
		t.Fatalf("commit during parked restore: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	s.smu[1].RUnlock()
	if err := <-restored; err != nil {
		t.Fatalf("restore: %v", err)
	}
	var id uint64
	select {
	case id = <-acked:
	case err := <-cerr:
		t.Fatalf("commit after restore released: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("commit never completed after restore finished")
	}
	// The acknowledged commit is in the restored state, alongside the
	// snapshot's seed annotation.
	if _, err := s.Annotation(id); err != nil {
		t.Fatalf("annotation %d acknowledged after restore is not visible: %v", id, err)
	}
	if got := len(s.Annotations()); got != 2 {
		t.Fatalf("annotations after restore+commit = %d, want 2 (seed + concurrent)", got)
	}
}

// influenzaSnapshot exports a generated influenza study of n annotations.
func influenzaSnapshot(t *testing.T, n int) *persist.Snapshot {
	t.Helper()
	cfg := workload.DefaultInfluenza
	cfg.Annotations = n
	study, err := workload.Influenza(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.Export(study.Store)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func perShardAnnotations(s *Store) []int {
	out := make([]int, s.NumShards())
	for k := range out {
		out[k] = s.View(k).Stats().Annotations
	}
	return out
}

// TestRestoreBadSnapshotChangesNothing: Restore is all-or-nothing on a
// snapshot the loader rejects, with or without a log. The bad snapshot's
// one invalid annotation is its last, so on the shard that does not hold
// it the partition loads cleanly — installing that shard before every
// partition had loaded left a durable deployment half-restored and
// checkpointed.
func TestRestoreBadSnapshotChangesNothing(t *testing.T) {
	good := influenzaSnapshot(t, 10)
	bad := influenzaSnapshot(t, 200)
	last := &bad.Annotations[len(bad.Annotations)-1]
	last.Terms = append(last.Terms, persist.TermRefDump{Ontology: "no-such-ontology", Term: "x"})

	dir := t.TempDir()
	durableSet, err := Open(dir, 2, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"in-memory": New(2), "durable": durableSet} {
		if err := s.Restore(good); err != nil {
			t.Fatalf("%s: restore of the good snapshot: %v", name, err)
		}
		want := perShardAnnotations(s)
		wantSnap, err := s.Export()
		if err != nil {
			t.Fatal(err)
		}
		err = s.Restore(bad)
		if !errors.Is(err, ErrBadSnapshot) || !errors.Is(err, core.ErrNoSuchOntology) {
			t.Fatalf("%s: restore of the bad snapshot: err = %v, want ErrBadSnapshot wrapping the loader's", name, err)
		}
		if got := perShardAnnotations(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-shard annotations after the refused restore = %v, want %v", name, got, want)
		}
		gotSnap, err := s.Export()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSnap, wantSnap) {
			t.Errorf("%s: export changed across the refused restore", name)
		}
		// The store still takes the next good restore.
		if err := s.Restore(good); err != nil {
			t.Errorf("%s: restore after the refused one: %v", name, err)
		}
	}

	// What is on disk is the good snapshot too.
	want := perShardAnnotations(durableSet)
	if err := durableSet.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, 0, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := perShardAnnotations(reopened); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened directory holds %v annotations per shard, want %v", got, want)
	}
}

// TestOneShardReadsCostTheShardsOwn: over one pipeline a merged read is
// the pipeline's own answer, not a rebuilt one. Counted in allocations,
// which repeat exactly where timings do not: Stats used to build union
// maps over every keyword and a-graph node per call (148 ns → 84 ms at 20k
// annotations) and Annotations to concatenate and re-sort a list already
// in ID order (50 → 425 µs).
func TestOneShardReadsCostTheShardsOwn(t *testing.T) {
	s := New(1)
	if err := s.Restore(influenzaSnapshot(t, 300)); err != nil {
		t.Fatal(err)
	}
	cs := s.shardCore(0)
	var stats core.Stats
	var anns []*core.Annotation
	for _, c := range []struct {
		name       string
		core, sets func()
	}{
		{"Stats", func() { stats = cs.Stats() }, func() { stats = s.Stats() }},
		{"Annotations", func() { anns = cs.Annotations() }, func() { anns = s.Annotations() }},
	} {
		own, merged := testing.AllocsPerRun(20, c.core), testing.AllocsPerRun(20, c.sets)
		if merged > 2*own {
			t.Errorf("%s: %v allocations through the shard set of one, %v on the core store; want within 2x", c.name, merged, own)
		}
	}
	if want := cs.Stats(); stats != want || len(anns) != want.Annotations {
		t.Fatalf("read %+v and %d annotations, want %+v", stats, len(anns), want)
	}
}
