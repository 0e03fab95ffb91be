package wal

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"graphitti/internal/faultfs"
	"graphitti/internal/trace"
)

// slowSync delays fdatasync without failing it, long enough for
// appends issued during the in-flight flush to pile into one batch.
type slowSync struct {
	mu    sync.Mutex
	delay time.Duration
	syncs int
}

func (s *slowSync) Decide(op faultfs.Op, path string) *faultfs.Fault {
	if op != faultfs.OpSync {
		return nil
	}
	s.mu.Lock()
	s.syncs++
	// Sync #1 is Create's header fsync; #2 is the first flush. Only
	// that one sleeps: while the flusher is stuck in it, the riders of
	// the next batch all enqueue.
	slow := s.syncs == 2
	s.mu.Unlock()
	if !slow {
		return nil
	}
	time.Sleep(s.delay)
	return nil
}

func flushChild(t *testing.T, root *trace.Span) *trace.Node {
	t.Helper()
	var find func(n *trace.Node) *trace.Node
	find = func(n *trace.Node) *trace.Node {
		if n.Name == "wal.flush" {
			return n
		}
		for _, c := range n.Children {
			if f := find(c); f != nil {
				return f
			}
		}
		return nil
	}
	tr := trace.Pack(root)
	got := find(tr.Node())
	if got == nil {
		t.Fatalf("no wal.flush span in %s", tr.Breakdown())
	}
	return got
}

// TestGroupCommitBatchAttribution pins the tentpole's batch-attribution
// contract: concurrent appends riding the same fsync get wal.flush
// spans carrying the same batch ID, and an append in a different flush
// gets a different one.
func TestGroupCommitBatchAttribution(t *testing.T) {
	inj := &slowSync{delay: 150 * time.Millisecond}
	w, err := Create(filepath.Join(t.TempDir(), "wal.log"), Options{Inject: inj, Shard: "3"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// A goes alone: its flush is the slow one.
	rootA := trace.NewRoot("http", "")
	ackA := w.AppendAsyncTraced([]byte("record-a"), rootA)

	// While A's fsync sleeps, B and C enqueue and must share the next batch.
	time.Sleep(20 * time.Millisecond)
	rootB := trace.NewRoot("http", "")
	rootC := trace.NewRoot("http", "")
	ackB := w.AppendAsyncTraced([]byte("record-b"), rootB)
	ackC := w.AppendAsyncTraced([]byte("record-c"), rootC)

	for name, ack := range map[string]<-chan error{"a": ackA, "b": ackB, "c": ackC} {
		if err := <-ack; err != nil {
			t.Fatalf("append %s: %v", name, err)
		}
	}

	fa := flushChild(t, rootA)
	fb := flushChild(t, rootB)
	fc := flushChild(t, rootC)
	for _, n := range []*trace.Node{fa, fb, fc} {
		if n.Attrs["batch"] == "" {
			t.Fatalf("flush span missing batch ID: %+v", n)
		}
	}
	if fb.Attrs["batch"] != fc.Attrs["batch"] {
		t.Fatalf("group-commit riders got different batch IDs: %q vs %q",
			fb.Attrs["batch"], fc.Attrs["batch"])
	}
	if fa.Attrs["batch"] == fb.Attrs["batch"] {
		t.Fatalf("separate flushes share batch ID %q", fa.Attrs["batch"])
	}
	if fb.Attrs["riders"] != "2" {
		t.Fatalf("riders = %q, want 2 (b and c batched)", fb.Attrs["riders"])
	}
	// Batch IDs carry the shard label for cross-shard disambiguation.
	if got := fa.Attrs["batch"]; len(got) < 3 || got[:2] != "3#" {
		t.Fatalf("batch ID %q not prefixed with shard label", got)
	}
	// The flush span must cover the (injected) slow fsync.
	if fa.DurationMicros < 100_000 {
		t.Fatalf("slow flush span only %dµs", fa.DurationMicros)
	}
}

// TestUntracedAppendUnaffected guards the zero-cost path: nil spans ride
// batches without producing spans or panics.
func TestUntracedAppendUnaffected(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "wal.log"), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]byte("plain")); err != nil {
		t.Fatal(err)
	}
	root := trace.NewRoot("http", "")
	if err := <-w.AppendAsyncTraced([]byte("traced"), root); err != nil {
		t.Fatal(err)
	}
	flushChild(t, root)
}
