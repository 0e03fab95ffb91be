package persist_test

import (
	"bytes"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// TestExportUnderWritersIsAPrefix is the one oracle applied to export: a
// writer applies the recovery scenario (commits, deletes, sequence
// registrations, record inserts) while the test pins views and exports
// them. Every scenario step is one op and every op publishes once, so a
// view's epoch is the length of the op prefix it holds, and its export
// must equal, byte for byte, the export of a serial replay of exactly
// that prefix into a fresh store.
func TestExportUnderWritersIsAPrefix(t *testing.T) {
	ops := workload.RecoveryScenario(workload.RecoveryConfig{Seed: 42, Images: 6, Ops: 1200})
	// The rule list is the one exported section read off the propagator
	// and not off the view: the writers start once the scenario's rules —
	// part of its setup — are in.
	setup := 0
	for i, op := range ops {
		if op.Kind == core.OpAddRule {
			setup = i + 1
		}
	}
	live, err := workload.Serial(ops[:setup])
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := workload.ApplyOps(func(op persist.Op) error { return live.Batch(op.Apply) }, ops[setup:]); err != nil {
			t.Errorf("past the %d setup ops: %v", setup, err)
		}
	}()

	pinned := map[uint64][]byte{} // view epoch -> its export
	for writing := true; writing; {
		select {
		case <-done:
			writing = false // one more, of the final view
		default:
		}
		v := live.View()
		if _, seen := pinned[v.Epoch()]; seen {
			continue
		}
		snap, err := persist.ExportView(v)
		if err != nil {
			t.Fatalf("export at epoch %d: %v", v.Epoch(), err)
		}
		var buf bytes.Buffer
		if err := persist.WriteSnapshot(snap, &buf); err != nil {
			t.Fatal(err)
		}
		pinned[v.Epoch()] = buf.Bytes()
	}
	if t.Failed() {
		return
	}
	if _, ok := pinned[uint64(len(ops))]; !ok {
		t.Fatalf("final view's epoch is not the scenario's %d ops", len(ops))
	}

	t.Logf("%d views exported between epoch %d and %d", len(pinned), setup, len(ops))

	replay := core.NewStore()
	for i, op := range ops {
		if err := replay.Batch(op.Apply); err != nil {
			t.Fatalf("replay op %d (%s): %v", i+1, op.Kind, err)
		}
		got, ok := pinned[uint64(i+1)]
		if !ok {
			continue
		}
		var want bytes.Buffer
		if err := persist.Write(replay, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("export pinned at epoch %d (%d bytes) is not the export of the first %d ops (%d bytes)",
				i+1, len(got), i+1, want.Len())
		}
		delete(pinned, uint64(i+1))
	}
	if len(pinned) != 0 {
		t.Fatalf("%d exports at epochs no op prefix has", len(pinned))
	}
}
