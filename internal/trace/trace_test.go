package trace

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	root := NewRoot("http", "")
	tp := root.TraceParent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("malformed traceparent %q", tp)
	}
	// A second root honoring the first's header joins the same trace.
	joined := NewRoot("http", tp)
	if joined.TraceID() != root.TraceID() {
		t.Fatalf("traceparent not honored: %s vs %s", joined.TraceID(), root.TraceID())
	}
	// But gets its own span ID.
	if joined.TraceParent() == tp {
		t.Fatal("child root reused the parent span ID")
	}
}

func TestTraceParentRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-short-id-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // unknown version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace ID
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01", // non-hex
		"00-0af7651916cd43dd8448eb211c80319c+b7ad6b7169203331-01", // bad separator
	} {
		fresh := NewRoot("http", bad)
		if got := fresh.TraceID(); strings.Contains(bad, got) && len(bad) == 55 {
			t.Errorf("adopted trace ID from invalid traceparent %q", bad)
		}
	}
	// The unknown-version case specifically must not adopt the ID, and
	// neither may a header W3C Trace Context says to ignore: an all-zero
	// parent ID, or hex that is not lower-case.
	const tid = "0af7651916cd43dd8448eb211c80319c"
	for _, bad := range []string{
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0A",
	} {
		if NewRoot("http", bad).TraceID() == tid {
			t.Errorf("adopted trace ID from invalid traceparent %q", bad)
		}
	}
	if got := NewRoot("http", "00-"+tid+"-b7ad6b7169203331-01").TraceID(); got != tid {
		t.Fatalf("valid traceparent not adopted: trace ID %s", got)
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var sp *Span
	sp.Finish()
	sp.SetAttr("k", "v")
	sp.SetShard(3)
	sp.FinishedChild("wal.flush", time.Now(), time.Now())
	if c := sp.StartChild("x"); c != nil {
		t.Fatal("nil span returned a live child")
	}
	if Pack(sp) != nil || Pack(sp).Node() != nil || sp.TraceParent() != "" {
		t.Fatal("nil span leaked state")
	}
	if Pack(sp).Breakdown() != "" {
		t.Fatal("nil span breakdown non-empty")
	}
	if NewTracer(Options{}).Record(sp, true) != nil {
		t.Fatal("nil span recorded")
	}
}

func TestTreeShapeAndAttrs(t *testing.T) {
	root := NewRoot("http", "")
	root.SetAttr("route", "POST /api/annotations")
	w := root.StartChild("shard.writer")
	w.SetShard(2)
	c := w.StartChild("commit")
	c.Finish()
	w.FinishedChild("wal.flush", time.Now().Add(-time.Millisecond), time.Now(),
		Attr{Key: "batch", Value: "2#7"})
	w.Finish()
	root.Finish()

	tr, hint := pack(root)
	n := tr.Node()
	if n.Name != "http" || n.TraceID == "" || n.Attrs["route"] != "POST /api/annotations" {
		t.Fatalf("bad root node: %+v", n)
	}
	if len(n.Children) != 1 || n.Children[0].Name != "shard.writer" {
		t.Fatalf("bad children: %+v", n.Children)
	}
	wn := n.Children[0]
	if wn.Shard == nil || *wn.Shard != 2 {
		t.Fatalf("shard tag lost: %+v", wn)
	}
	var names []string
	for _, ch := range wn.Children {
		names = append(names, ch.Name)
	}
	if len(names) != 2 || names[0] != "commit" || names[1] != "wal.flush" {
		t.Fatalf("grandchildren = %v", names)
	}
	if wn.Children[1].Attrs["batch"] != "2#7" {
		t.Fatalf("batch attr lost: %+v", wn.Children[1])
	}
	if hint != 2 {
		t.Fatalf("shard hint = %d, want 2", hint)
	}
	// The tree must be JSON-serializable (what /debug/traces emits).
	if _, err := json.Marshal(n); err != nil {
		t.Fatal(err)
	}
	if bd := tr.Breakdown(); !strings.Contains(bd, "http=") || !strings.Contains(bd, "shard.writer[2]=") {
		t.Fatalf("breakdown %q", bd)
	}
}

func TestContextCarriesSpan(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context produced a span")
	}
	sp := NewRoot("http", "")
	ctx := NewContext(context.Background(), sp)
	if FromContext(ctx) != sp {
		t.Fatal("span lost in context")
	}
}

func TestTracerRingRetention(t *testing.T) {
	tr := NewTracer(Options{RingSize: 4})
	var ids []string
	for i := 0; i < 10; i++ {
		root := NewRoot("http", "")
		root.SetShard(1)
		root.Finish()
		tr.Record(root, false)
		ids = append(ids, root.TraceID())
	}
	got := tr.Traces(1)
	if len(got) != 4 {
		t.Fatalf("ring held %d traces, want 4", len(got))
	}
	// The ring has wrapped: it serves the last four, oldest first.
	for i, g := range got {
		if id := g.Node().TraceID; id != ids[6+i] {
			t.Fatalf("trace %d of the ring is %s, want record %d's %s", i, id, 6+i, ids[6+i])
		}
	}
	if len(tr.Traces(-1)) != 0 {
		t.Fatal("shardless ring should be empty")
	}
	if len(tr.Traces(ShardAll)) != 4 {
		t.Fatal("ShardAll mismatch")
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(Options{RingSize: 64, SampleEvery: 4})
	for i := 0; i < 16; i++ {
		root := NewRoot("http", "")
		root.Finish()
		tr.Record(root, false)
	}
	if n := len(tr.Traces(-1)); n != 4 {
		t.Fatalf("sampled %d of 16 at 1-in-4, want 4", n)
	}
	// forced bypasses sampling.
	root := NewRoot("http", "")
	root.Finish()
	tr.Record(root, true)
	if n := len(tr.Traces(-1)); n != 5 {
		t.Fatalf("forced trace not retained (%d)", n)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(Options{RingSize: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := NewRoot("http", "")
				c := root.StartChild("commit")
				c.SetShard(g % 3)
				c.Finish()
				root.Finish()
				tr.Record(root, false)
			}
		}(g)
	}
	wg.Wait()
	total := len(tr.Traces(ShardAll))
	if total == 0 || total > 3*8 {
		t.Fatalf("rings hold %d traces, want 1..24", total)
	}
	for _, got := range tr.Traces(ShardAll) {
		if got.Node() == nil {
			t.Fatal("nil tree from ring")
		}
	}
}

func TestTopKHeavyHitters(t *testing.T) {
	tk := NewTopK(3)
	feed := map[string]int{"segment1": 100, "segment2": 60, "segment3": 30, "noise-a": 2, "noise-b": 1}
	for key, n := range feed {
		for i := 0; i < n; i++ {
			tk.Record(key)
		}
	}
	top := tk.Top()
	if len(top) != 3 {
		t.Fatalf("sketch holds %d entries, want 3", len(top))
	}
	if top[0].Key != "segment1" || top[1].Key != "segment2" {
		t.Fatalf("heavy hitters missing: %+v", top)
	}
	// Space-saving never under-counts: estimate >= true count.
	if top[0].Count < 100 || top[1].Count < 60 {
		t.Fatalf("under-counted: %+v", top)
	}
	tk.Record("")
	for _, e := range tk.Top() {
		if e.Key == "" {
			t.Fatal("empty key counted")
		}
	}
}

func TestTopKConcurrent(t *testing.T) {
	tk := NewTopK(4)
	var wg sync.WaitGroup
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tk.Record(keys[(g+i)%len(keys)])
			}
		}(g)
	}
	wg.Wait()
	if got := len(tk.Top()); got != 4 {
		t.Fatalf("sketch holds %d entries, want 4", got)
	}
}
