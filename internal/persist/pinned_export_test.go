package persist_test

import (
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// TestExportUnderWritersIsAPrefix is the one oracle applied to export: a
// writer applies the recovery scenario (commits, deletes, sequence
// registrations, record inserts) while the test pins a view every few
// epochs and a second reader checks each (workload.Check, which writes
// the view's checkpoint) as the writer goes on. Every scenario step is
// one op and every op publishes once, so a view's epoch is the length of
// the op prefix it holds, and it must hold the state of a serial replay
// of exactly that prefix into a fresh store (workload.Diff, which
// compares checkpoints byte for byte).
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

	// A view each time the writer is stride epochs past the last one:
	// up to 100 prefixes, fewer when the writer outruns the loop.
	stride := uint64(len(ops)-setup) / 100
	pinned := map[uint64]*core.View{} // by epoch
	toCheck := make(chan *core.View, len(ops))
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for v := range toCheck {
			if err := workload.Check([]*core.View{v}); err != nil {
				t.Error(err)
			}
		}
	}()
	next := uint64(0)
	for writing := true; writing; {
		select {
		case <-done:
			writing = false // one more, of the final view
		default:
		}
		v := live.View()
		if _, seen := pinned[v.Epoch()]; seen || (writing && v.Epoch() < next) {
			continue
		}
		pinned[v.Epoch()] = v
		toCheck <- v
		next = v.Epoch() + stride
	}
	close(toCheck)
	<-checked
	if t.Failed() {
		return
	}
	if _, ok := pinned[uint64(len(ops))]; !ok {
		t.Fatalf("final view's epoch is not the scenario's %d ops", len(ops))
	}

	t.Logf("%d views pinned between epoch %d and %d", len(pinned), setup, len(ops))

	replay := core.NewStore()
	for i, op := range ops {
		if err := replay.Batch(op.Apply); err != nil {
			t.Fatalf("replay op %d (%s): %v", i+1, op.Kind, err)
		}
		v, ok := pinned[uint64(i+1)]
		if !ok {
			continue
		}
		if err := workload.Diff([]*core.View{v}, []*core.View{replay.View()}); err != nil {
			t.Fatalf("view pinned at epoch %d against the first %d ops: %v", i+1, i+1, err)
		}
		delete(pinned, uint64(i+1))
	}
	if len(pinned) != 0 {
		t.Fatalf("%d views at epochs no op prefix has", len(pinned))
	}
}
