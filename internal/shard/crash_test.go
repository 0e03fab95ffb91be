package shard_test

// The sharded crash harness: a child process drives the spread recovery
// scenario into a 2-shard durable store (each shard its own WAL segment
// and snapshot chain), the parent SIGKILLs it mid-stream, reopens the
// directory (parallel per-shard replay), and checks the recovered
// deployment equals an UNSHARDED in-memory store fed the recovered op
// prefix — stats, merged export, derived facts, provenance, and the
// paper's Q1 query.
//
// The recovered global prefix length K is found by inverting
// sum(per-shard seq) = K + (shards-1)·B(K), where B(K) counts broadcast
// ops among the first K: a broadcast lands on every shard's log, a
// routed op on exactly one, and serial application (each durable ack
// blocking the next op) makes the surviving state a prefix. The parent
// only kills after the broadcast setup prefix, so no kill lands between
// the per-shard applications of one broadcast.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"graphitti"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/persist"
	"graphitti/internal/shard"
	"graphitti/internal/workload"
)

const (
	shardCrashChildEnv     = "GRAPHITTI_SHARD_CRASH_CHILD"
	shardCrashDirEnv       = "GRAPHITTI_SHARD_CRASH_DIR"
	shardCrashThresholdEnv = "GRAPHITTI_SHARD_CRASH_THRESHOLD"
	shardCrashShards       = 2
)

func shardCrashOps() []workload.RecoveryOp {
	return workload.ShardedScenario(workload.RecoveryConfig{Seed: 19, Images: 8, Ops: 400}, 4)
}

// TestShardCrashChild is the child-process body; the parent re-executes
// the test binary with the env set and kills it partway.
func TestShardCrashChild(t *testing.T) {
	if os.Getenv(shardCrashChildEnv) != "1" {
		t.Skip("crash-harness child helper; run via TestShardedCrashRecovery")
	}
	threshold, err := strconv.ParseInt(os.Getenv(shardCrashThresholdEnv), 10, 64)
	if err != nil {
		t.Fatalf("bad threshold: %v", err)
	}
	s, err := shard.Open(os.Getenv(shardCrashDirEnv), shardCrashShards,
		durable.Options{CompactThreshold: threshold})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	// Never closed: the parent kills us; the next Open must recover.
	for _, op := range shardCrashOps() {
		if err := op.Apply(shard.AsSink(s)); err != nil {
			t.Fatalf("child op %d (%s): %v", op.Seq, op.Name, err)
		}
		fmt.Printf("acked %d\n", op.Seq)
	}
	fmt.Println("done")
}

func TestShardedCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash gauntlet; CI's sharding job runs it explicitly")
	}
	ops := shardCrashOps()
	setup := broadcastPrefixLen(ops)
	cases := []struct {
		name          string
		killAfter     int
		threshold     int64
		wantCompacted bool
	}{
		{name: "early-no-compaction", killAfter: setup + 20, threshold: 64 << 20},
		{name: "after-compaction", killAfter: 330, threshold: 16 << 10, wantCompacted: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			acked := runAndKillShardChild(t, dir, tc.threshold, tc.killAfter)

			// Adopt the recorded shard count (0): the layout is
			// self-describing via SHARDS.json.
			s, err := shard.Open(dir, 0, durable.Options{CompactThreshold: tc.threshold})
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer s.Close()
			if got := s.NumShards(); got != shardCrashShards {
				t.Fatalf("recovered %d shards, wrote %d", got, shardCrashShards)
			}
			for k := 0; k < shardCrashShards; k++ {
				if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%d", k))); err != nil {
					t.Fatalf("missing per-shard directory: %v", err)
				}
			}

			sts := s.DurabilityStats()
			var sum, compacted uint64
			for k, st := range sts {
				sum += st.Seq
				if st.SnapshotSeq > 0 {
					compacted++
				}
				t.Logf("shard %d: seq=%d snapshotSeq=%d replayed=%d torn=%d",
					k, st.Seq, st.SnapshotSeq, st.ReplayedRecords, st.TornBytes)
			}
			if tc.wantCompacted && compacted == 0 {
				t.Fatal("expected at least one shard to have checkpointed pre-crash")
			}

			k := recoveredPrefix(t, ops, int(sum), shardCrashShards)
			t.Logf("child acked %d ops; recovered global prefix %d", acked, k)
			// Durability contract: every acknowledged op survives.
			if k < acked {
				t.Fatalf("recovered only %d ops but child acked %d — lost acknowledged writes", k, acked)
			}

			want := core.NewStore()
			if err := workload.ApplyOps(workload.AsSink(want), ops[:k]); err != nil {
				t.Fatalf("building expected store: %v", err)
			}

			if g, w := s.Views().Stats(), want.Stats(); g != w {
				t.Fatalf("stats diverged after replay:\n got %+v\nwant %+v", g, w)
			}
			gotSnap, err := shard.Export(s)
			if err != nil {
				t.Fatal(err)
			}
			wantSnap, err := persist.Export(want)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, _ := json.Marshal(gotSnap)
			wantJSON, _ := json.Marshal(wantSnap)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatal("merged export diverged from unsharded replay")
			}
			if !reflect.DeepEqual(s.Views().DerivedAll(), slices.Collect(want.View().DerivedEach)) {
				t.Fatalf("derived facts diverged: %d vs %d",
					len(s.Views().DerivedAll()), len(slices.Collect(want.View().DerivedEach)))
			}

			// Q1 parity via the merged snapshot re-materialized as one store.
			merged, err := persist.Load(gotSnap)
			if err != nil {
				t.Fatalf("loading merged export: %v", err)
			}
			gotQ, err := graphitti.QueryTP53Images(merged, graphitti.TP53Options{})
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
		})
	}
}

// recoveredPrefix inverts sum = K + (shards-1)·B(K). The map K → sum is
// strictly increasing, so the match is unique; no match means the crash
// split a broadcast across shards, which the kill threshold rules out.
func recoveredPrefix(t *testing.T, ops []workload.RecoveryOp, sum, shards int) int {
	t.Helper()
	broadcasts := 0
	if sum == 0 {
		return 0
	}
	for i, op := range ops {
		if strings.HasPrefix(op.Name, "register-ontology") ||
			strings.HasPrefix(op.Name, "add-rule") ||
			strings.HasPrefix(op.Name, "delete-rule") {
			broadcasts++
		}
		k := i + 1
		if got := k + (shards-1)*broadcasts; got == sum {
			return k
		} else if got > sum {
			break
		}
	}
	t.Fatalf("per-shard sequence sum %d matches no op prefix (broadcast torn across shards?)", sum)
	return 0
}

func runAndKillShardChild(t *testing.T, dir string, threshold int64, killAfter int) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestShardCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		shardCrashChildEnv+"=1",
		shardCrashDirEnv+"="+dir,
		shardCrashThresholdEnv+"="+strconv.FormatInt(threshold, 10),
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
		if n, ok := strings.CutPrefix(sc.Text(), "acked "); ok {
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

// broadcastPrefixLen returns how many leading ops of a scenario are
// broadcast ops' upper bound: the position after the last broadcast op
// (ontology registrations and rule changes). A sharded crash harness
// must only kill after this point, so a kill never lands between the
// per-shard applications of one broadcast.
func broadcastPrefixLen(ops []workload.RecoveryOp) int {
	last := 0
	for _, op := range ops {
		switch {
		case strings.HasPrefix(op.Name, "register-ontology"),
			strings.HasPrefix(op.Name, "add-rule"),
			strings.HasPrefix(op.Name, "delete-rule"):
			last = op.Seq
		}
	}
	return last
}
