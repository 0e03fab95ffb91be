package shard

import (
	"errors"
	"syscall"
	"testing"

	"graphitti/internal/durable"
	"graphitti/internal/faultfs"
	"graphitti/internal/prop"
)

// TestBroadcastConvergesAfterPartialFailure pins the recovery story for
// half-applied broadcasts: an I/O fault while a rule broadcast reaches
// shard 1 leaves the rule on shard 0 only; after recovering the shard,
// re-issuing the same broadcast must install it on the shards that
// missed it instead of aborting on shard 0's duplicate.
func TestBroadcastConvergesAfterPartialFailure(t *testing.T) {
	sc := faultfs.NewScript()
	s, err := Open(t.TempDir(), 2, durable.Options{Inject: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Fail the WAL append itself (not the later fsync — a record that
	// reached the file would legitimately replay on recovery even though
	// it was never acknowledged).
	rule := prop.Rule{ID: "conv", Edge: prop.EdgeSharedReferent}
	sc.FailPath(faultfs.OpWrite, "shard-1", 1,
		faultfs.Fault{Err: faultfs.Errno(faultfs.OpWrite, syscall.EIO)})
	err = s.AddRule(rule)
	var se *Error
	if err == nil || !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("want broadcast failure tagged shard 1, got %v", err)
	}
	// Recovery replays shard 1 from disk, discarding the unacknowledged
	// in-memory application; the torn broadcast is now visible as a rule
	// present on shard 0 and absent on shard 1.
	if err := s.Reopen(1); err != nil {
		t.Fatal(err)
	}
	if got := len(prop.RulesOf(s.shardCore(0).View())); got != 1 {
		t.Fatalf("shard 0 has %d rules after torn broadcast, want 1", got)
	}
	if got := len(prop.RulesOf(s.shardCore(1).View())); got != 0 {
		t.Fatalf("shard 1 has %d rules after recovery, want 0", got)
	}
	// The remedy from the runbook: re-issue the broadcast. Shard 0
	// answers duplicate (skipped), shard 1 catches up.
	if err := s.AddRule(rule); err != nil {
		t.Fatalf("re-issued broadcast did not converge: %v", err)
	}
	for k := 0; k < 2; k++ {
		if got := len(prop.RulesOf(s.shardCore(k).View())); got != 1 {
			t.Fatalf("shard %d has %d rules after convergence, want 1", k, got)
		}
	}
	// Now a true duplicate: every shard rejects, and the caller sees it.
	if err := s.AddRule(rule); !errors.Is(err, prop.ErrDuplicateRule) {
		t.Fatalf("true duplicate broadcast: want ErrDuplicateRule, got %v", err)
	}
	// Same convergence shape for deletion: fully applied delete errors
	// only when no shard had the rule.
	if err := s.DeleteRule("conv"); err != nil {
		t.Fatalf("delete broadcast: %v", err)
	}
	if err := s.DeleteRule("conv"); !errors.Is(err, prop.ErrNoSuchRule) {
		t.Fatalf("deleting a gone rule: want ErrNoSuchRule, got %v", err)
	}
}
