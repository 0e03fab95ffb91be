package durable

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"graphitti"
	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/workload"
)

// The crash harness runs the deterministic recovery scenario in a child
// process against a real (fsyncing) durable store, SIGKILLs the child
// mid-stream, then replays the data directory in this process and checks
// the recovered store equals an in-memory store fed the same op prefix —
// Stats, full snapshot, and the paper's Q1 TP53 query.

const (
	crashChildEnv     = "GRAPHITTI_CRASH_CHILD"
	crashDirEnv       = "GRAPHITTI_CRASH_DIR"
	crashThresholdEnv = "GRAPHITTI_CRASH_THRESHOLD"
)

// TestDurableCrashChild is the child-process body, not a test in its own
// right: the parent re-executes the test binary with GRAPHITTI_CRASH_CHILD
// set and kills it partway through the op stream.
func TestDurableCrashChild(t *testing.T) {
	if os.Getenv(crashChildEnv) != "1" {
		t.Skip("crash-harness child helper; run via TestCrashRecovery")
	}
	threshold, err := strconv.ParseInt(os.Getenv(crashThresholdEnv), 10, 64)
	if err != nil {
		t.Fatalf("bad threshold: %v", err)
	}
	s, err := Open(os.Getenv(crashDirEnv), Options{CompactThreshold: threshold})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	// Never closed: the parent kills us, or we exit with the log open —
	// either way the next Open must recover.
	for _, op := range workload.RecoveryScenario(workload.DefaultRecovery) {
		if err := op.Apply(s); err != nil {
			t.Fatalf("child op %d (%s): %v", op.Seq, op.Name, err)
		}
		fmt.Printf("acked %d\n", op.Seq)
	}
	fmt.Println("done")
}

func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash gauntlet; CI's durability job runs it explicitly")
	}
	cases := []struct {
		name      string
		killAfter int
		threshold int64
		// wantCompacted requires the pre-crash store to have checkpointed
		// at least once (verified via the recovered manifest).
		wantCompacted bool
	}{
		{name: "early-no-compaction", killAfter: 40, threshold: 64 << 20, wantCompacted: false},
		{name: "after-compaction", killAfter: 330, threshold: 16 << 10, wantCompacted: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			acked := runAndKillChild(t, dir, tc.threshold, tc.killAfter)

			s, err := Open(dir, Options{CompactThreshold: tc.threshold})
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer s.Close()
			st := s.Stats()
			t.Logf("child acked %d ops; recovered seq=%d snapshotSeq=%d replayed=%d torn=%d",
				acked, st.Seq, st.SnapshotSeq, st.ReplayedRecords, st.TornBytes)

			ops := workload.RecoveryScenario(workload.DefaultRecovery)
			k := int(st.Seq)
			// Durability contract: every acknowledged op survives; the log
			// may additionally hold ops that were in flight at the kill.
			if k < acked {
				t.Fatalf("recovered only %d ops but child acked %d — lost acknowledged writes", k, acked)
			}
			if k > len(ops) {
				t.Fatalf("recovered %d ops, scenario only has %d", k, len(ops))
			}
			if tc.wantCompacted && st.SnapshotSeq == 0 {
				t.Fatal("expected at least one pre-crash compaction (snapshotSeq is 0)")
			}

			want := core.NewStore()
			if err := workload.ApplyOps(workload.AsSink(want), ops[:k]); err != nil {
				t.Fatalf("building expected store: %v", err)
			}
			got := s.Core()

			if g, w := got.Stats(), want.Stats(); g != w {
				t.Fatalf("stats diverged after replay:\n got %+v\nwant %+v", g, w)
			}
			gotSnap, err := persist.Export(got)
			if err != nil {
				t.Fatal(err)
			}
			wantSnap, err := persist.Export(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotSnap, wantSnap) {
				t.Fatal("full store snapshots diverged after replay")
			}

			// Paper query Q1 (TP53) must answer identically.
			gotQ, err := graphitti.QueryTP53Images(got, graphitti.TP53Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantQ, err := graphitti.QueryTP53Images(want, graphitti.TP53Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotQ.QualifyingImages, wantQ.QualifyingImages) {
				t.Fatalf("Q1 qualifying images diverged: got %v want %v",
					gotQ.QualifyingImages, wantQ.QualifyingImages)
			}
			if !reflect.DeepEqual(gotQ.RegionCounts, wantQ.RegionCounts) {
				t.Fatalf("Q1 region counts diverged: got %v want %v",
					gotQ.RegionCounts, wantQ.RegionCounts)
			}
			if !reflect.DeepEqual(annIDs(gotQ.Annotations), annIDs(wantQ.Annotations)) {
				t.Fatalf("Q1 answers diverged: got %v want %v",
					annIDs(gotQ.Annotations), annIDs(wantQ.Annotations))
			}

			// Propagation parity: the rules survived (as durable ops /
			// snapshot state) and the replayed derived-annotation table —
			// rebuilt from snapshot recompute plus per-op deltas — matches
			// the in-memory store's fact-for-fact.
			gotRules, wantRules := prop.RulesOf(got), prop.RulesOf(want)
			if !reflect.DeepEqual(gotRules, wantRules) {
				t.Fatalf("rules diverged after replay: got %v want %v", gotRules, wantRules)
			}
			if k > lastRuleSeq(ops) && len(gotRules) == 0 {
				t.Fatal("crash landed after the rule ops but none were recovered")
			}
			if !reflect.DeepEqual(slices.Collect(got.View().DerivedEach), slices.Collect(want.View().DerivedEach)) {
				t.Fatalf("derived facts diverged after replay: %d vs %d facts",
					len(slices.Collect(got.View().DerivedEach)), len(slices.Collect(want.View().DerivedEach)))
			}
			// Derived-query parity: provenance lookups answer identically.
			for _, ann := range want.Annotations() {
				gp := derivedTargeting(got.View(), agraph.ContentRoot(ann.ID))
				wp := derivedTargeting(want.View(), agraph.ContentRoot(ann.ID))
				if !reflect.DeepEqual(gp, wp) {
					t.Fatalf("provenance of annotation %d diverged: got %v want %v", ann.ID, gp, wp)
				}
			}
		})
	}
}

// lastRuleSeq returns the scenario position of the last add-rule op (0
// when the scenario has none).
func lastRuleSeq(ops []workload.RecoveryOp) int {
	last := 0
	for _, op := range ops {
		if strings.HasPrefix(op.Name, "add-rule") {
			last = op.Seq
		}
	}
	return last
}

// runAndKillChild re-executes this test binary as the crash child, reads
// its ack stream, and SIGKILLs it once killAfter ops are acknowledged. By
// then the child has usually raced well past killAfter, so the kill lands
// mid-write. Returns the highest ack the parent observed.
func runAndKillChild(t *testing.T, dir string, threshold int64, killAfter int) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDurableCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		crashChildEnv+"=1",
		crashDirEnv+"="+dir,
		crashThresholdEnv+"="+strconv.FormatInt(threshold, 10),
	)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	acked, done := 0, false
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if n, ok := strings.CutPrefix(line, "acked "); ok {
			if v, err := strconv.Atoi(n); err == nil && v > acked {
				acked = v
			}
			if acked >= killAfter && !done {
				done = true
				if err := cmd.Process.Kill(); err != nil {
					t.Fatalf("kill child: %v", err)
				}
			}
		}
	}
	_ = cmd.Wait() // killed: non-zero exit is expected
	if acked < killAfter {
		t.Fatalf("child exited after only %d acks, wanted to kill at %d", acked, killAfter)
	}
	return acked
}

func annIDs(anns []*core.Annotation) []uint64 {
	ids := make([]uint64, len(anns))
	for i, a := range anns {
		ids[i] = a.ID
	}
	return ids
}

// derivedTargeting collects the derived facts targeting one node.
func derivedTargeting(v *core.View, target agraph.NodeRef) []core.DerivedFact {
	var out []core.DerivedFact
	v.DerivedTargetingEach(target, func(f core.DerivedFact) bool {
		out = append(out, f)
		return true
	})
	return out
}
