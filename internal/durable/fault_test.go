package durable

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"graphitti"
	"graphitti/internal/core"
	"graphitti/internal/faultfs"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// The fault-injection harness is the crash harness's sibling: instead of
// SIGKILLing a child process it breaks the disk underneath a live store
// (via faultfs) at random operation indices, then repairs the disk and
// recovers with Reopen. The invariants it asserts are the durability
// contract plus the degradation state machine:
//
//   - an op acknowledged (nil error) while degraded is a bug;
//   - an op that fails must leave the store degraded, and the error must
//     wrap ErrDegraded;
//   - once the disk is repaired, Reopen succeeds and the recovered state
//     equals an in-memory store fed the same op prefix — no acknowledged
//     mutation lost;
//   - the scenario then resumes against the recovered store and must end
//     in full parity with a never-faulted run.

// openStoreBootOps is how many injectable file operations a fresh-dir
// Open performs (log create, header write, header sync, dir sync); the
// Flaky warm-up must cover them so Open itself succeeds.
const openStoreBootOps = 4

func TestFaultInjectionRecovery(t *testing.T) {
	ops := workload.RecoveryScenario(workload.DefaultRecovery)
	for seed := int64(1); seed <= 5; seed++ {
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			inj := faultfs.NewFlaky(faultfs.FlakyConfig{
				Seed:      seed,
				SkipOps:   openStoreBootOps + rng.Intn(600),
				FailProb:  0.05 + rng.Float64()*0.3,
				MaxFaults: 1 + rng.Intn(3),
			})
			s, err := Open(t.TempDir(), Options{CompactThreshold: 32 << 10, Inject: inj})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer s.Close()

			// Phase 1: run the scenario over the flaky disk. Results must
			// be a clean prefix of acks followed (if a degrading fault
			// fires) by nothing but ErrDegraded refusals.
			acked := 0
			for i, op := range ops {
				wasDegraded := s.Health().State == StateDegraded
				err := s.Apply(op)
				if err == nil {
					if wasDegraded {
						t.Fatalf("op %d (%s) acknowledged while store degraded", i+1, op.Kind)
					}
					acked++
					continue
				}
				// The op that trips the fault must surface ErrDegraded and
				// flip the state machine. Later ops are refused by the
				// degraded store: any error is fine then, an ack is not.
				if !wasDegraded && !errors.Is(err, ErrDegraded) {
					t.Fatalf("op %d (%s) failed without ErrDegraded: %v", i+1, op.Kind, err)
				}
				if h := s.Health(); h.State != StateDegraded || h.Reason == "" {
					t.Fatalf("op %d (%s) failed but health is %+v", i+1, op.Kind, h)
				}
			}
			t.Logf("seed %d: acked %d/%d, injected %v", seed, acked, len(ops), inj.Injected())

			// Phase 2: repair the disk and recover.
			inj.Disable()
			degraded := s.Health().State == StateDegraded
			if _, err := s.Reopen(); err != nil {
				t.Fatalf("reopen on repaired disk: %v", err)
			}
			if h := s.Health(); h.State != StateHealthy {
				t.Fatalf("health after reopen: %+v", h)
			}
			st := s.Stats()
			if degraded && st.Reopens != 1 {
				t.Fatalf("reopens = %d after recovery, want 1", st.Reopens)
			}

			// Phase 3: the recovered state is a scenario prefix at least as
			// long as the acked run (a faulted op may have reached the
			// platter before its ack was withheld — holding it is allowed,
			// losing an acked op is not).
			k := int(st.Seq)
			if k < acked {
				t.Fatalf("recovered %d ops but %d were acknowledged — lost acked writes", k, acked)
			}
			if k > len(ops) {
				t.Fatalf("recovered %d ops, scenario only has %d", k, len(ops))
			}
			if err := workload.Check([]*core.View{s.Core().View()}); err != nil {
				t.Fatalf("after recovery: %v", err)
			}
			mustEqualStores(t, s.Core(), serial(t, ops[:k]))

			// Phase 4: resume the scenario where the disk state left off;
			// the run must end exactly where a fault-free run ends.
			run(t, s, ops, k, len(ops))
			want := serial(t, ops)
			mustEqualStores(t, s.Core(), want)

			gotQ, err := graphitti.QueryTP53Images(s.Core(), graphitti.TP53Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantQ, err := graphitti.QueryTP53Images(want, graphitti.TP53Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotQ.QualifyingImages, wantQ.QualifyingImages) {
				t.Fatalf("Q1 diverged after recovery: got %v want %v",
					gotQ.QualifyingImages, wantQ.QualifyingImages)
			}
		})
	}
}

// run applies ops[from:to] to s, failing at the first error with the op's
// scenario position and kind.
func run(t *testing.T, s *Store, ops []persist.Op, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := s.Apply(ops[i]); err != nil {
			t.Fatalf("op %d (%s): %v", i+1, ops[i].Kind, err)
		}
	}
}

// TestDegradeOnFsyncError pins the fsyncgate rule end to end: one failed
// fdatasync withholds the ack, degrades the store, and guarantees the
// log file is never touched again until Reopen replaces the writer.
func TestDegradeOnFsyncError(t *testing.T) {
	sc := faultfs.NewScript()
	s, err := Open(t.TempDir(), Options{Inject: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ops := workload.RecoveryScenario(workload.DefaultRecovery)
	run(t, s, ops, 0, 20)

	sc.FailAt(faultfs.OpSync, 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpSync, syscall.EIO)})
	err = s.Apply(ops[20])
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, faultfs.ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("faulted op error chain: %v", err)
	}
	if h := s.Health(); h.State != StateDegraded || h.Reason == "" {
		t.Fatalf("health after fault: %+v", h)
	}

	// Degraded refusals never reach the disk: the op and sync counters
	// must not move (a write+fsync after a failed fsync could ack records
	// over a silently dropped tail).
	writes, syncs := sc.Count(faultfs.OpWrite), sc.Count(faultfs.OpSync)
	if err := s.Apply(ops[21]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("op against degraded store: %v", err)
	}
	if sc.Count(faultfs.OpWrite) != writes || sc.Count(faultfs.OpSync) != syncs {
		t.Fatal("degraded store touched the log file")
	}

	// Reads keep working while degraded.
	if s.Core().Stats().Annotations == 0 {
		t.Fatal("reads failed while degraded")
	}

	// The disk is fine again (the script rule fired once); recover.
	if _, err := s.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	st := s.Stats()
	if st.Health.State != StateHealthy || st.Reopens != 1 {
		t.Fatalf("after reopen: health=%+v reopens=%d", st.Health, st.Reopens)
	}
	// The frame of op 21 hit the file before its fsync failed; with no
	// real crash the bytes survived, so recovery may legally include it —
	// holding an unacked op is allowed, losing an acked one is not.
	k := int(st.Seq)
	if k < 20 {
		t.Fatalf("recovered %d ops, 20 were acked", k)
	}
	mustEqualStores(t, s.Core(), serial(t, ops[:k]))

	// And the recovered store accepts writes again.
	if err := s.Apply(ops[k]); err != nil {
		t.Fatalf("op after recovery: %v", err)
	}
}

// TestTornWriteRecovered breaks an append a few bytes into the frame;
// recovery must truncate the torn tail and resume from the acked prefix.
func TestTornWriteRecovered(t *testing.T) {
	sc := faultfs.NewScript()
	s, err := Open(t.TempDir(), Options{Inject: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ops := workload.RecoveryScenario(workload.DefaultRecovery)
	run(t, s, ops, 0, 8)

	const torn = 5 // a partial frame header: unambiguously torn
	sc.FailAt(faultfs.OpWrite, 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpWrite, syscall.EIO), Short: torn})
	if err := s.Apply(ops[8]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("torn-write op: %v", err)
	}

	if _, err := s.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	st := s.Stats()
	if st.TornBytes != torn {
		t.Fatalf("torn bytes = %d, want %d", st.TornBytes, torn)
	}
	if st.Seq != 8 {
		t.Fatalf("recovered seq = %d, want 8 (torn op must not replay)", st.Seq)
	}
	mustEqualStores(t, s.Core(), serial(t, ops[:8]))
	if err := s.Apply(ops[8]); err != nil {
		t.Fatalf("replaying the torn op after recovery: %v", err)
	}
}

// TestReopenFailsWhileDiskBroken: Reopen on a still-broken disk must
// fail and leave the store degraded; a later Reopen on a repaired disk
// succeeds.
func TestReopenFailsWhileDiskBroken(t *testing.T) {
	sc := faultfs.NewScript()
	s, err := Open(t.TempDir(), Options{Inject: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ops := workload.RecoveryScenario(workload.DefaultRecovery)
	run(t, s, ops, 0, 5)

	sc.FailAt(faultfs.OpSync, 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpSync, syscall.EIO)})
	if err := s.Apply(ops[5]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("faulted op: %v", err)
	}

	// The disk is still broken: the next fsync — Reopen's own validation
	// of the reloaded log — fails too.
	sc.FailAt(faultfs.OpSync, 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpSync, syscall.EIO)})
	if _, err := s.Reopen(); err == nil {
		t.Fatal("reopen succeeded on a broken disk")
	} else if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("reopen error: %v", err)
	}
	if h := s.Health(); h.State != StateDegraded {
		t.Fatalf("store not degraded after failed reopen: %+v", h)
	}
	if err := s.Apply(ops[6]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write after failed reopen: %v", err)
	}

	// Repaired (both rules spent): recovery proceeds.
	if _, err := s.Reopen(); err != nil {
		t.Fatalf("reopen on repaired disk: %v", err)
	}
	if h := s.Health(); h.State != StateHealthy {
		t.Fatalf("health after recovery: %+v", h)
	}
	run(t, s, ops, int(s.Stats().Seq), 10)
}

// TestReopenKeepsTheGauges: the view gauges (graphitti_store_view_epoch,
// _annotations and _derived_facts) read the view the store serves after
// a Reopen, whether it reloaded the directory or kept the old state. A
// torn write leaves memory one op ahead of the log, so the reload, which
// publishes under the store's label, differs from the kept state; a
// failed log probe then drops it.
func TestReopenKeepsTheGauges(t *testing.T) {
	const shard = "reopen-gauges"
	sc := faultfs.NewScript()
	s, err := Open(t.TempDir(), Options{Inject: sc, Store: core.StoreOptions{Shard: shard}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := func(what string) {
		t.Helper()
		v := s.Core().View()
		for name, n := range map[string]int{
			"graphitti_store_view_epoch":    int(v.Epoch()),
			"graphitti_store_annotations":   v.Stats().Annotations,
			"graphitti_store_derived_facts": v.Stats().Derived,
		} {
			if g := gauge(t, name, shard); g != int64(n) {
				t.Errorf("%s: %s reads %d, the serving view %d", what, name, g, n)
			}
		}
	}
	ops := workload.RecoveryScenario(workload.DefaultRecovery)
	run(t, s, ops, 0, 40)

	sc.FailAt(faultfs.OpWrite, 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpWrite, syscall.EIO), Short: 5})
	if err := s.Apply(ops[40]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("torn-write op: %v", err)
	}
	kept := s.Core().View().Epoch()
	// The reload syncs the log it truncates; the probe's is the next.
	sc.FailAt(faultfs.OpSync, 2, faultfs.Fault{Err: faultfs.Errno(faultfs.OpSync, syscall.EIO)})
	if _, err := s.Reopen(); err == nil || !strings.Contains(err.Error(), "log probe") {
		t.Fatalf("reopen with the probe failing: %v", err)
	}
	if e := s.Core().View().Epoch(); e != kept {
		t.Fatalf("a failed reopen serves epoch %d, want the kept %d", e, kept)
	}
	want("failed log probe")
	if _, err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	if e := s.Core().View().Epoch(); e == kept {
		t.Fatalf("the reload serves the kept epoch %d", e)
	}
	want("reopen")
}

// TestCompactionFaultKeepsPriorCheckpoint breaks each step of a
// compaction in turn; the store must stay healthy and writable (the op
// stream is already durable in the log), and a fresh Open of the
// directory must load the previous checkpoint plus the full log.
func TestCompactionFaultKeepsPriorCheckpoint(t *testing.T) {
	cases := []struct {
		name string
		arm  func(sc *faultfs.Script)
	}{
		{"snapshot-create", func(sc *faultfs.Script) {
			sc.FailPath(faultfs.OpCreate, ".snap", 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpCreate, syscall.ENOSPC)})
		}},
		{"snapshot-rename", func(sc *faultfs.Script) {
			sc.FailPath(faultfs.OpRename, ".snap", 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpRename, syscall.ENOSPC)})
		}},
		{"manifest-sync", func(sc *faultfs.Script) {
			sc.FailPath(faultfs.OpSync, "MANIFEST", 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpSync, syscall.EIO)})
		}},
	}
	ops := workload.RecoveryScenario(workload.DefaultRecovery)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sc := faultfs.NewScript()
			s, err := Open(dir, Options{CompactThreshold: -1, Inject: sc})
			if err != nil {
				t.Fatal(err)
			}
			run(t, s, ops, 0, 30)
			if err := s.Compact(); err != nil {
				t.Fatalf("baseline compaction: %v", err)
			}
			run(t, s, ops, 30, 60)

			tc.arm(sc)
			if err := s.Compact(); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("compaction under fault: %v", err)
			}
			// A failed checkpoint is not a failed store: the log holds
			// every op, so the store stays healthy and keeps acking.
			if h := s.Health(); h.State != StateHealthy {
				t.Fatalf("compaction fault degraded the store: %+v", h)
			}
			run(t, s, ops, 60, 70)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			reopened, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open after failed compaction: %v", err)
			}
			defer reopened.Close()
			st := reopened.Stats()
			if st.SnapshotSeq != 30 {
				t.Fatalf("surviving checkpoint at seq %d, want 30", st.SnapshotSeq)
			}
			if st.Seq != 70 {
				t.Fatalf("recovered seq %d, want 70", st.Seq)
			}
			mustEqualStores(t, reopened.Core(), serial(t, ops[:70]))
		})
	}
}

// TestStaleSnapshotRemoveFaultIsBestEffort pins the faultfs.OpRemove
// contract (the rawfileop lint rule made stale-snapshot cleanup
// injector-mediated): an injected unlink failure leaves the stale
// checkpoint on disk but must not fail the compaction or degrade the
// store — the file costs disk, not correctness — and a later healthy
// compaction sweeps it.
func TestStaleSnapshotRemoveFaultIsBestEffort(t *testing.T) {
	ops := workload.RecoveryScenario(workload.DefaultRecovery)
	dir := t.TempDir()
	sc := faultfs.NewScript()
	s, err := Open(dir, Options{CompactThreshold: -1, Inject: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snaps := func() []string {
		m, err := filepath.Glob(filepath.Join(dir, snapPattern))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run(t, s, ops, 0, 30)
	if err := s.Compact(); err != nil {
		t.Fatalf("baseline compaction: %v", err)
	}
	run(t, s, ops, 30, 60)

	sc.FailPath(faultfs.OpRemove, ".snap", 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpRemove, syscall.EIO)})
	if err := s.Compact(); err != nil {
		t.Fatalf("compaction with failing stale-snapshot remove: %v", err)
	}
	if h := s.Health(); h.State != StateHealthy {
		t.Fatalf("best-effort remove fault degraded the store: %+v", h)
	}
	if got := len(snaps()); got != 2 {
		t.Fatalf("stale snapshot swept despite injected remove failure: %d snapshot files, want 2 (stale + current)", got)
	}

	// Repaired disk: the next compaction sweeps the stale checkpoint.
	sc.Clear()
	run(t, s, ops, 60, 90)
	if err := s.Compact(); err != nil {
		t.Fatalf("compaction after repair: %v", err)
	}
	if got := snaps(); len(got) != 1 {
		t.Fatalf("stale snapshots not swept after repair: %v", got)
	}
}

// TestRotationFaultDegradesButRecovers: a fault in compaction step 3
// (log rotation) leaves no live log, so unlike snapshot/manifest faults
// it must degrade — and Reopen must still recover everything, because
// the manifest committed before the rotation started.
func TestRotationFaultDegradesButRecovers(t *testing.T) {
	sc := faultfs.NewScript()
	s, err := Open(t.TempDir(), Options{CompactThreshold: -1, Inject: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ops := workload.RecoveryScenario(workload.DefaultRecovery)
	run(t, s, ops, 0, 40)

	// The rotation's create is the first OpCreate on the .wal path after
	// arming (snapshot/manifest writes use .snap/.json tmp files).
	sc.FailPath(faultfs.OpCreate, ".wal", 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpCreate, syscall.EIO)})
	if err := s.Compact(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("compaction under rotation fault: %v", err)
	}
	if h := s.Health(); h.State != StateDegraded {
		t.Fatalf("rotation fault must degrade (no live log): %+v", h)
	}
	if err := s.Apply(ops[40]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write after failed rotation: %v", err)
	}

	if _, err := s.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	st := s.Stats()
	if st.Seq != 40 || st.SnapshotSeq != 40 {
		t.Fatalf("recovered seq=%d snapshotSeq=%d, want 40/40 (manifest committed before rotation)", st.Seq, st.SnapshotSeq)
	}
	mustEqualStores(t, s.Core(), serial(t, ops[:40]))
	run(t, s, ops, 40, 50)
}
