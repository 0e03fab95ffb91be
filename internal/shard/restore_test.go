package shard

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
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
	if err := s.Apply(persist.SequenceOp(sq)); err != nil {
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
	if got := len(s.Views().Annotations()); got != 2 {
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
	vs := s.Views()
	out := make([]int, len(vs))
	for k, v := range vs {
		out[k] = v.Stats().Annotations
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
	cs, vs := s.shardCore(0), s.Views()
	var stats core.Stats
	var anns []*core.Annotation
	for _, c := range []struct {
		name       string
		core, sets func()
	}{
		{"Stats", func() { stats = cs.Stats() }, func() { stats = vs.Stats() }},
		{"Annotations", func() { anns = cs.Annotations() }, func() { anns = vs.Annotations() }},
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

// perShardExports renders each shard's own export, in shard order,
// without the ID counters: a live shard's stop at the last ID it was
// handed, a restored shard's are the deployment's.
func perShardExports(t *testing.T, s *Store) [][]byte {
	t.Helper()
	out := make([][]byte, s.NumShards())
	for k := range out {
		snap, err := persist.Export(s.shardCore(k))
		if err != nil {
			t.Fatal(err)
		}
		snap.NextAnn, snap.NextRef = 0, 0
		var buf bytes.Buffer
		if err := persist.WriteSnapshot(snap, &buf); err != nil {
			t.Fatal(err)
		}
		out[k] = buf.Bytes()
	}
	return out
}

// TestRestoredShardsEqualLiveShards: one routing rule. A scenario applied
// live and its merged export restored into a fresh set of the same size
// must agree shard by shard — the merged export alone would also match if
// live ops and snapshot entries were placed by two tables that disagreed.
// The scenario registers every sequence with an empty Domain (routed by
// its ID); the kinds it never registers, and a sequence that names its
// domain, ride along.
func TestRestoredShardsEqualLiveShards(t *testing.T) {
	live := New(3)
	if err := workload.ApplyOps(AsSink(live), workload.ShardedScenario(workload.RecoveryConfig{Seed: 11, Images: 6, Ops: 250}, 3)); err != nil {
		t.Fatal(err)
	}
	registerDomainSeq(t, live, "seq-named", "chr-named")
	for i := 0; i < 4; i++ {
		aln, err := msa.New(fmt.Sprintf("aln-%d", i), []string{"r1", "r2"}, []string{"AC-GT", "ACGGT"})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := phylo.ParseNewick(fmt.Sprintf("tree-%d", i), "((a:1,b:2):0.5,c:3);")
		if err != nil {
			t.Fatal(err)
		}
		g := interact.NewGraph(fmt.Sprintf("ppi-%d", i))
		if _, err := g.AddMolecule("P1", "polymerase", interact.ProteinMol); err != nil {
			t.Fatal(err)
		}
		for _, op := range []persist.Op{persist.AlignmentOp(aln), persist.TreeOp(tree), persist.GraphOp(g)} {
			if err := live.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap, err := live.Export()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(3)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, want := perShardExports(t, restored), perShardExports(t, live)
	for k := range want {
		if !bytes.Equal(got[k], want[k]) {
			t.Errorf("shard %d: restored export differs from the live shard's:\n got %.1500s\nwant %.1500s", k, got[k], want[k])
		}
	}
}

// TestPipelineOwnsWhatItRegisters: an op holds a dump, so every pipeline
// builds its own copy of what it registers. The registration methods this
// replaced kept the caller's pointer — one ontology shared by all N cores,
// and by the log's dump only at the moment it was taken — so a change the
// caller made afterwards was served by every shard and gone after reopen.
func TestPipelineOwnsWhatItRegisters(t *testing.T) {
	dir := t.TempDir()
	durableSet, err := Open(dir, 1, durable.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"in-memory N=3": New(3), "durable N=1": durableSet} {
		o := workload.BrainOntology()
		sq, err := seq.New("seq-0", seq.DNA, strings.Repeat("ACGT", 8))
		if err != nil {
			t.Fatal(err)
		}
		sq.Description = "as registered"
		for _, op := range []persist.Op{persist.OntologyOp(o), persist.SequenceOp(sq)} {
			if err := s.Apply(op); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		want, err := s.Export()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.AddTerm("added-later", "added later"); err != nil {
			t.Fatal(err)
		}
		sq.Description = "changed later"
		got, err := s.Export()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the caller's later changes reached the store:\n got %+v\nwant %+v", name, got, want)
		}
		if s != durableSet {
			continue
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(dir, 0, durable.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		got, err = reopened.Export()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: export after reopen differs from the one served:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
