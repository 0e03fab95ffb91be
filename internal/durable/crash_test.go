package durable

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"graphitti"
	"graphitti/internal/core"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// The crash harness runs the deterministic recovery scenario in a child
// process against a real (fsyncing) durable store, SIGKILLs the child
// mid-stream, then replays the data directory in this process and checks
// the recovered store shows no anomaly (workload.Check) and holds the
// state of an in-memory store fed the same op prefix (workload.Diff), and
// answers the paper's Q1 TP53 query as that store does.

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
	for i, op := range workload.RecoveryScenario(workload.DefaultRecovery) {
		if err := s.Apply(op); err != nil {
			t.Fatalf("child op %d (%s): %v", i+1, op.Kind, err)
		}
		fmt.Printf("acked %d\n", i+1)
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

			want := serial(t, ops[:k])
			got := s.Core()
			if err := workload.Check([]*core.View{got.View()}); err != nil {
				t.Fatalf("recovered state: %v", err)
			}
			if err := workload.Diff([]*core.View{got.View()}, []*core.View{want.View()}); err != nil {
				t.Fatalf("after replay: %v", err)
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
		})
	}
}

// serial is the scenario's oracle, an in-memory store fed ops one session
// each (workload.Serial).
func serial(t *testing.T, ops []persist.Op) *core.Store {
	t.Helper()
	cs, err := workload.Serial(ops)
	if err != nil {
		t.Fatalf("building expected store: %v", err)
	}
	return cs
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
