// Package trace is Graphitti's dependency-free span tracer: the
// always-on instrumentation that shows where a single request spent its
// time as it crossed the pipeline — HTTP dispatch, the shard router, the
// per-shard writer, the commit critical section, the propagation delta,
// and the WAL group-commit flush.
//
// # Model
//
// A trace is a tree of spans. The HTTP middleware opens the root span
// for every request (honoring an incoming W3C `traceparent` header and
// emitting one on the response), hands it down the call path, and each
// instrumented layer opens a child around its own work. Span kinds are
// a small fixed vocabulary ("http", "router", "shard.writer", "commit",
// "prop.delta", "wal.flush", "query", "search", "delete", "encode");
// every span finish also feeds the graphitti_trace_* metric families, so
// each kind observed in a trace has a matching duration histogram in
// /metrics.
//
// The API is nil-safe end to end: every method on a nil *Span is a
// no-op, so deep layers (the core writer, the WAL flusher) carry a span
// pointer unconditionally and pay only a nil check when the caller did
// not trace.
//
// # Batch attribution
//
// The WAL's single flusher serves many concurrent committers with one
// write+fdatasync. When it completes a batch it attaches a finished
// "wal.flush" child — stamped with the batch ID — to every rider's
// span, so concurrent commits that waited on the same fsync carry the
// same batch ID and an operator can see group commit working (or not)
// straight from the traces.
//
// # Retention
//
// Finished traces land in a lock-free per-shard ring buffer (Tracer);
// GET /debug/traces serves them as JSON and ?trace=1 returns a request's
// own tree inline. Rings hold the last RingSize traces per shard —
// tracing is always on, the rings are the sampling.
//
// A ring does not hold the live spans. Tracer.Record packs the finished
// tree once into a Trace, one immutable string: span names and attribute
// keys as codes into a small process-wide table, integer attributes as
// varints, times as offsets from the root. Every reader renders from it
// — Node for /debug/traces and ?trace=1, Breakdown for the slow-request
// log — and a request that sampling drops is never packed. A create
// trace of seven spans keeps about 270 bytes live where its spans kept
// 1.8 KB (TestTraceRingFootprint).
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphitti/internal/obs"
)

// Span metric families: every Finish observes its kind's duration
// histogram, traced request or not, which is what keeps the
// trace/metrics invariant ("every span kind has a histogram family
// sample") testable. Documented in docs/METRICS.md.
var (
	mSpanSeconds = obs.NewHistogramVec("graphitti_trace_span_duration_seconds",
		"Span duration, by span kind.", nil, "kind")
	mTracesRecorded = obs.NewCounter("graphitti_trace_traces_recorded_total",
		"Finished root spans retained in the /debug/traces ring buffers.")
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// attr is a live span's annotation: a SetAttr string, or a SetAttrInt
// integer kept as one, so no decimal string is made for it.
type attr struct {
	key, str string
	num      int64
	isNum    bool
}

// spanSeed XORs a per-process random base into the span-ID counter so
// IDs are unique without a crypto/rand read per span.
var (
	spanSeed = func() uint64 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return uint64(time.Now().UnixNano())
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
	spanCtr atomic.Uint64
)

func newSpanID() [8]byte {
	var id [8]byte
	v := spanSeed ^ (spanCtr.Add(1) * 0x9e3779b97f4a7c15)
	binary.LittleEndian.PutUint64(id[:], v)
	if v == 0 {
		id[0] = 1 // all-zero span IDs are invalid in W3C traceparent
	}
	return id
}

func newTraceID() [16]byte {
	var id [16]byte
	if _, err := rand.Read(id[:]); err != nil {
		binary.LittleEndian.PutUint64(id[:8], newSpanIDUint())
		binary.LittleEndian.PutUint64(id[8:], newSpanIDUint())
	}
	if id == ([16]byte{}) {
		id[0] = 1
	}
	return id
}

func newSpanIDUint() uint64 {
	id := newSpanID()
	return binary.LittleEndian.Uint64(id[:])
}

// Span is one timed operation in a trace tree. All methods are safe on a
// nil receiver (no-ops), and safe for concurrent use — the WAL flusher
// attaches children to a rider's span from another goroutine.
type Span struct {
	name    string
	traceID [16]byte
	spanID  [8]byte
	start   time.Time

	mu       sync.Mutex
	end      time.Time
	shard    int // -1 until SetShard
	attrs    []attr
	children []*Span
}

// NewRoot opens a root span. traceparent, when it is a valid W3C
// `traceparent` header value (00-<32 hex>-<16 hex>-<2 hex>), donates its
// trace ID so the trace joins the caller's distributed trace; anything
// else starts a fresh trace.
func NewRoot(name, traceparent string) *Span {
	s := &Span{name: name, spanID: newSpanID(), start: time.Now(), shard: -1}
	if tid, ok := parseTraceParent(traceparent); ok {
		s.traceID = tid
	} else {
		s.traceID = newTraceID()
	}
	return s
}

// parseTraceParent extracts the trace ID of a version-00 W3C traceparent
// header value. As W3C Trace Context requires, the IDs and flags are
// lower-case hex, and a header whose trace ID or parent ID is all zeros
// is ignored.
func parseTraceParent(v string) ([16]byte, bool) {
	var tid [16]byte
	if len(v) != 55 || !strings.HasPrefix(v, "00-") || v[35] != '-' || v[52] != '-' ||
		!lowerHex(v[3:35]) || !lowerHex(v[36:52]) || !lowerHex(v[53:55]) ||
		v[36:52] == "0000000000000000" {
		return tid, false
	}
	_, _ = hex.Decode(tid[:], []byte(v[3:35])) // lower-case hex, checked above
	if tid == ([16]byte{}) {
		return tid, false // all-zero trace ID is invalid
	}
	return tid, true
}

func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// TraceParent renders the span as an outgoing W3C traceparent header
// value, sampled flag set (tracing is always on).
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	return "00-" + hex.EncodeToString(s.traceID[:]) + "-" + hex.EncodeToString(s.spanID[:]) + "-01"
}

// TraceID returns the hex trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return hex.EncodeToString(s.traceID[:])
}

// StartChild opens a child span of the same trace. Returns nil on a nil
// receiver, so call chains cost one nil check when untraced.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, traceID: s.traceID, spanID: newSpanID(),
		start: time.Now(), shard: -1}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// FinishedChild attaches an already-timed child — how the WAL flusher
// stamps its batch onto every rider after the fsync completes. The child
// observes the span metric families exactly as a StartChild/Finish pair
// would.
func (s *Span) FinishedChild(name string, start, end time.Time, attrs ...Attr) {
	if s == nil {
		return
	}
	c := &Span{name: name, traceID: s.traceID, spanID: newSpanID(),
		start: start, end: end, shard: -1, attrs: make([]attr, len(attrs))}
	for i, a := range attrs {
		c.attrs[i] = attr{key: a.Key, str: a.Value}
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	mSpanSeconds.With(name).Observe(end.Sub(start).Seconds())
}

// Finish closes the span and observes its kind's metric families.
// Finishing twice keeps the first end time.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = time.Now()
	d := s.end.Sub(s.start)
	s.mu.Unlock()
	mSpanSeconds.With(s.name).Observe(d.Seconds())
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	s.addAttr(attr{key: key, str: value})
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, v int64) {
	s.addAttr(attr{key: key, num: v, isNum: true})
}

func (s *Span) addAttr(a attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make([]attr, 0, 3) // what most spans set
	}
	s.attrs = append(s.attrs, a)
	s.mu.Unlock()
}

// SetShard tags the span with the shard that did its work.
func (s *Span) SetShard(k int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.shard = k
	s.mu.Unlock()
}

// ctxKey carries the active span through a context.
type ctxKey struct{}

// NewContext returns ctx carrying sp.
func NewContext(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx (nil when untraced — safe
// to call methods on).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// ring is a lock-free fixed-size buffer of finished traces: writers
// claim a slot with one atomic add and publish with one atomic pointer
// store; readers snapshot whatever is published.
type ring struct {
	slots []atomic.Pointer[Trace]
	n     atomic.Uint64
}

func newRing(size int) *ring {
	return &ring{slots: make([]atomic.Pointer[Trace], size)}
}

func (r *ring) put(t *Trace) {
	i := r.n.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// snapshot returns the published traces oldest first: once the ring has
// wrapped, the oldest is in the slot the next put overwrites.
func (r *ring) snapshot() []*Trace {
	size := uint64(len(r.slots))
	var first uint64
	if n := r.n.Load(); n > size {
		first = n % size
	}
	out := make([]*Trace, 0, size)
	for i := range size {
		if t := r.slots[(first+i)%size].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// DefaultRingSize is the per-shard trace retention when Options leave it
// zero: enough recent traces to diagnose an incident, small enough to be
// always-on (a packed create trace is about 300 bytes).
const DefaultRingSize = 256

// Options tune a Tracer.
type Options struct {
	// RingSize is the per-shard ring capacity (DefaultRingSize when 0).
	RingSize int
	// SampleEvery keeps every Nth finished trace in the rings (1 — every
	// trace — when 0 or 1). ?trace=1 requests are always kept. Span
	// metrics are observed for every request regardless.
	SampleEvery int
}

// Tracer retains finished traces in one lock-free ring per shard
// (shard -1 — requests that never touched a shard-tagged span — has its
// own ring). Safe for concurrent use.
type Tracer struct {
	ringSize    int
	sampleEvery uint64
	seq         atomic.Uint64

	mu    sync.Mutex // guards ring-slice growth only
	rings atomic.Pointer[[]*ring]
}

// NewTracer returns a Tracer with the given retention options.
func NewTracer(o Options) *Tracer {
	if o.RingSize <= 0 {
		o.RingSize = DefaultRingSize
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 1
	}
	t := &Tracer{ringSize: o.RingSize, sampleEvery: uint64(o.SampleEvery)}
	empty := []*ring{}
	t.rings.Store(&empty)
	return t
}

// Record packs a finished root span's tree and retains it in the ring of
// the highest shard tagged in it, returning the packed trace. forced (the
// ?trace=1 path) bypasses sampling; a trace that sampling drops is not
// packed, and Record returns nil for it.
func (t *Tracer) Record(root *Span, forced bool) *Trace {
	if t == nil || root == nil {
		return nil
	}
	if !forced && t.sampleEvery > 1 && t.seq.Add(1)%t.sampleEvery != 0 {
		return nil
	}
	tr, hint := pack(root)
	t.ringFor(hint + 1).put(tr) // shard -1 → ring 0
	mTracesRecorded.Inc()
	return tr
}

// ringFor returns (growing the copy-on-write slice if needed) ring idx.
func (t *Tracer) ringFor(idx int) *ring {
	if rs := *t.rings.Load(); idx < len(rs) {
		return rs[idx]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rs := *t.rings.Load()
	if idx < len(rs) {
		return rs[idx]
	}
	grown := make([]*ring, idx+1)
	copy(grown, rs)
	for i := len(rs); i <= idx; i++ {
		grown[i] = newRing(t.ringSize)
	}
	t.rings.Store(&grown)
	return grown[idx]
}

// Traces snapshots retained traces. shard filters to one shard's ring
// (-1 for the shardless ring); pass ShardAll for every ring. Traces are
// returned newest-last within a ring; cross-ring order is unspecified.
func (t *Tracer) Traces(shard int) []*Trace {
	if t == nil {
		return nil
	}
	rs := *t.rings.Load()
	if shard != ShardAll {
		idx := shard + 1
		if idx < 0 || idx >= len(rs) {
			return nil
		}
		return rs[idx].snapshot()
	}
	var out []*Trace
	for _, r := range rs {
		out = append(out, r.snapshot()...)
	}
	return out
}

// ShardAll selects every ring in Tracer.Traces.
const ShardAll = -2
