package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The reference renderings: what the rings served when they held the
// live spans, walked at read time. A packed trace must render as these
// do on the tree as it stood when it was recorded.

func refTree(s *Span) *Node {
	n := refNode(s)
	n.TraceID = s.TraceID()
	return n
}

func refNode(s *Span) *Node {
	s.mu.Lock()
	n := &Node{
		Name:   s.name,
		SpanID: hex.EncodeToString(s.spanID[:]),
		Start:  s.start,
	}
	if !s.end.IsZero() {
		n.DurationMicros = s.end.Sub(s.start).Microseconds()
	}
	if s.shard >= 0 {
		k := s.shard
		n.Shard = &k
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			if _, dup := n.Attrs[a.key]; !dup {
				n.Attrs[a.key] = refValue(a)
			}
		}
	}
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		n.Children = append(n.Children, refNode(c))
	}
	return n
}

func refValue(a attr) string {
	if a.isNum {
		return strconv.FormatInt(a.num, 10)
	}
	return a.str
}

func refBreakdown(s *Span, b *strings.Builder) {
	s.mu.Lock()
	name, shard := s.name, s.shard
	var d time.Duration
	if !s.end.IsZero() {
		d = s.end.Sub(s.start)
	}
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	b.WriteString(name)
	if shard >= 0 {
		fmt.Fprintf(b, "[%d]", shard)
	}
	fmt.Fprintf(b, "=%s", d.Round(time.Microsecond))
	if len(kids) > 0 {
		b.WriteByte('{')
		for i, c := range kids {
			if i > 0 {
				b.WriteByte(' ')
			}
			refBreakdown(c, b)
		}
		b.WriteByte('}')
	}
}

// refShardHint is the highest shard tag in the tree, -1 for none.
func refShardHint(s *Span) int {
	s.mu.Lock()
	hint := s.shard
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		hint = max(hint, refShardHint(c))
	}
	return max(hint, -1)
}

// fuzzTree deals the fuzzer's bytes out as a span tree; past their end
// it deals zeros, which close the tree.
type fuzzTree struct {
	b    []byte
	base time.Time // the root's start
}

func (f *fuzzTree) next() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *fuzzTree) int64() int64 {
	var w [8]byte
	for i := range w {
		w[i] = f.next()
	}
	return int64(binary.LittleEndian.Uint64(w[:]))
}

// fuzzWords are names and keys the tree reuses, so that keys repeat on
// a span; any other string is cut from the bytes, of any length and not
// always UTF-8.
var fuzzWords = []string{"http", "route", "commit", "wal.flush", "", "名前", "k",
	"rule.bench-overlap.facts", strings.Repeat("long", 20)}

func (f *fuzzTree) str() string {
	c := f.next()
	if c < 128 {
		return fuzzWords[int(c)%len(fuzzWords)]
	}
	n := min(int(c-128), len(f.b))
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

// at is a time near the root's start, before it as often as after, with
// or without a monotonic reading.
func (f *fuzzTree) at() time.Time {
	t := f.base.Add(time.Duration(int32(f.int64())) * 997)
	if f.next()&1 == 0 {
		t = t.Round(0)
	}
	return t
}

func (f *fuzzTree) grow(s *Span, depth int) {
	for range f.next() % 6 {
		if k := f.str(); f.next()&1 == 0 {
			s.SetAttrInt(k, f.int64())
		} else {
			s.SetAttr(k, f.str())
		}
	}
	if c := f.next(); c%3 == 0 {
		s.SetShard(int(c/3)%9 - 2)
	}
	if depth >= 6 {
		return
	}
	for range f.next() % 4 {
		switch f.next() % 3 {
		case 0:
			c := s.StartChild(f.str())
			f.grow(c, depth+1)
			if f.next()&1 == 0 {
				c.Finish() // else left open
			}
		case 1:
			name, start := f.str(), f.at()
			end := start.Add(time.Duration(int16(f.int64())) * time.Microsecond)
			if f.next()%4 == 0 {
				end = time.Time{} // open
			}
			var attrs []Attr
			for range f.next() % 3 {
				attrs = append(attrs, Attr{Key: f.str(), Value: f.str()})
			}
			s.FinishedChild(name, start, end, attrs...)
		default:
			c := s.StartChild(f.str())
			f.grow(c, depth+1)
			c.Finish()
			c.Finish()
		}
	}
}

// FuzzTracePack builds a span tree from the fuzzer's bytes and records
// it: the packed trace's JSON is byte for byte the reference rendering
// taken at record time, and so are its breakdown, its root's duration
// and route, and the ring it lands in.
func FuzzTracePack(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte("\x03\x01\x01\x00POST /api/annotations\x07\x03\x00\x03\x00\x01\x02\x01\x03\x00\x00"))
	f.Add(bytes.Repeat([]byte{0x85, 0x02, 0xff, 0x03, 0x01}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		ft := &fuzzTree{b: data}
		root := NewRoot(ft.str(), "")
		ft.base = root.start
		ft.grow(root, 0)
		if ft.next()&1 == 0 {
			root.Finish()
		}

		want, err := json.Marshal(refTree(root))
		if err != nil {
			t.Fatal(err)
		}
		var bd strings.Builder
		refBreakdown(root, &bd)
		var route string
		for _, a := range root.attrs {
			if a.key == "route" {
				route = refValue(a)
				break
			}
		}
		var dur time.Duration
		if !root.end.IsZero() {
			dur = root.end.Sub(root.start)
		}

		tracer := NewTracer(Options{RingSize: 2})
		tr := tracer.Record(root, false)
		got, err := json.Marshal(tr.Node())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("packed trace renders\n%s\nwant\n%s", got, want)
		}
		if tr.Breakdown() != bd.String() {
			t.Fatalf("breakdown %q, want %q", tr.Breakdown(), bd.String())
		}
		if tr.Duration() != dur || tr.Route() != route {
			t.Fatalf("root duration %v route %q, want %v %q", tr.Duration(), tr.Route(), dur, route)
		}
		if held := tracer.Traces(refShardHint(root)); len(held) != 1 || held[0] != tr {
			t.Fatalf("trace not in the ring of shard %d", refShardHint(root))
		}
	})
}

// createTrace builds the span tree of a traced create on a two-shard
// durable server with an overlap rule: 7 spans, 15 attributes.
func createTrace(i int) *Span {
	root := NewRoot("http", "")
	root.SetAttr("method", "POST")
	r := root.StartChild("router")
	r.Finish()
	r.SetAttrInt("home", 1)
	r.SetAttrInt("span", 1)
	r.SetAttr("key", "segment"+strconv.Itoa(i%16))
	w := root.StartChild("shard.writer")
	w.SetShard(1)
	c := w.StartChild("commit")
	d := c.StartChild("prop.delta")
	d.SetAttrInt("sources", 1)
	d.SetAttrInt("rule.bench-overlap.facts", 5)
	d.SetAttrInt("rule.bench-overlap.micros", 14)
	d.Finish()
	c.SetAttrInt("ann", int64(4000+i))
	c.SetAttrInt("referents", 1)
	c.Finish()
	now := time.Now()
	w.FinishedChild("wal.flush", now.Add(-130*time.Microsecond), now,
		Attr{Key: "batch", Value: "1#" + strconv.Itoa(1000+i)}, Attr{Key: "riders", Value: "1"})
	w.Finish()
	e := root.StartChild("encode")
	e.SetAttrInt("annotations", 1)
	e.SetAttrInt("bytes", 510)
	e.Finish()
	root.SetAttr("route", "POST /api/annotations")
	root.SetAttrInt("status", 201)
	root.Finish()
	return root
}

// liveBytes returns the heap bytes still in use once a collection frees
// nothing more.
func liveBytes() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	for {
		last := m.HeapAlloc
		time.Sleep(time.Millisecond)
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc >= last {
			return m.HeapAlloc
		}
	}
}

// TestTraceRingFootprint pins what a retained trace costs: a full ring
// of 256 create traces, the tracer and its ring counted, keeps at most
// 400 bytes live per trace and 112 KiB in all. While the rings held the
// live spans, such a trace kept 1,792 bytes.
func TestTraceRingFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the live heap")
	}
	const n = DefaultRingSize
	NewTracer(Options{}).Record(createTrace(0), false) // the name table, once a process
	before := liveBytes()
	tracer := NewTracer(Options{RingSize: n})
	for i := range n {
		tracer.Record(createTrace(i), false)
	}
	total := int64(liveBytes()) - int64(before)
	if held := len(tracer.Traces(1)); held != n {
		t.Fatalf("ring holds %d traces, want %d", held, n)
	}
	per := float64(total) / n
	t.Logf("%d traces keep %d bytes live, %.0f per trace", n, total, per)
	if per > 400 {
		t.Errorf("a retained create trace keeps %.0f bytes, want at most 400", per)
	}
	if total > 112<<10 {
		t.Errorf("a full ring keeps %d bytes, want at most %d", total, 112<<10)
	}
	runtime.KeepAlive(tracer)
}
