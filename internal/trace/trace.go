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
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
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
	attrs    []Attr
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
// header value.
func parseTraceParent(v string) ([16]byte, bool) {
	var tid [16]byte
	if len(v) != 55 || !strings.HasPrefix(v, "00-") || v[35] != '-' || v[52] != '-' {
		return tid, false
	}
	raw, err := hex.DecodeString(v[3:35])
	if err != nil {
		return tid, false
	}
	if _, err := hex.DecodeString(v[36:52]); err != nil {
		return tid, false
	}
	if _, err := hex.DecodeString(v[53:55]); err != nil {
		return tid, false
	}
	copy(tid[:], raw)
	if tid == ([16]byte{}) {
		return tid, false // all-zero trace ID is invalid
	}
	return tid, true
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
		start: start, end: end, shard: -1, attrs: attrs}
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
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, v int64) {
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// Attr returns the first value recorded for key ("" when absent or nil).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
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

// Duration returns the span's duration (0 while open or on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// ShardHint returns the highest shard tag anywhere in the tree, or -1
// when no span was shard-tagged — which ring the trace belongs in.
func (s *Span) ShardHint() int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	hint := s.shard
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		if h := c.ShardHint(); h > hint {
			hint = h
		}
	}
	return hint
}

// Node is the JSON projection of a span tree, what /debug/traces and
// ?trace=1 serve.
type Node struct {
	Name           string            `json:"name"`
	TraceID        string            `json:"traceId,omitempty"`
	SpanID         string            `json:"spanId"`
	Shard          *int              `json:"shard,omitempty"`
	Start          time.Time         `json:"start"`
	DurationMicros int64             `json:"durationMicros"`
	Attrs          map[string]string `json:"attrs,omitempty"`
	Children       []*Node           `json:"children,omitempty"`
}

// Tree renders the span and its descendants as Nodes; the receiver gets
// the trace ID. Returns nil on a nil span.
func (s *Span) Tree() *Node {
	n := s.node()
	if n != nil {
		n.TraceID = s.TraceID()
	}
	return n
}

func (s *Span) node() *Node {
	if s == nil {
		return nil
	}
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
			if _, dup := n.Attrs[a.Key]; !dup {
				n.Attrs[a.Key] = a.Value
			}
		}
	}
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		n.Children = append(n.Children, c.node())
	}
	return n
}

// Breakdown renders the tree on one line — "http=1.2ms{commit=0.9ms{…}}"
// — for the slow-request log.
func (s *Span) Breakdown() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.breakdown(&b)
	return b.String()
}

func (s *Span) breakdown(b *strings.Builder) {
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
			c.breakdown(b)
		}
		b.WriteByte('}')
	}
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
	slots []atomic.Pointer[Span]
	n     atomic.Uint64
}

func newRing(size int) *ring {
	return &ring{slots: make([]atomic.Pointer[Span], size)}
}

func (r *ring) put(s *Span) {
	i := r.n.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(s)
}

func (r *ring) snapshot() []*Span {
	out := make([]*Span, 0, len(r.slots))
	for i := range r.slots {
		if s := r.slots[i].Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// DefaultRingSize is the per-shard trace retention when Options leave it
// zero: enough recent traces to diagnose an incident, small enough to be
// always-on (a span tree is a few hundred bytes).
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

// Record retains a finished root span in its shard's ring. forced (the
// ?trace=1 path) bypasses sampling.
func (t *Tracer) Record(root *Span, forced bool) {
	if t == nil || root == nil {
		return
	}
	if !forced && t.sampleEvery > 1 && t.seq.Add(1)%t.sampleEvery != 0 {
		return
	}
	idx := root.ShardHint() + 1 // shard -1 → ring 0
	if idx < 0 {
		idx = 0
	}
	t.ringFor(idx).put(root)
	mTracesRecorded.Inc()
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
func (t *Tracer) Traces(shard int) []*Span {
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
	var out []*Span
	for _, r := range rs {
		out = append(out, r.snapshot()...)
	}
	return out
}

// ShardAll selects every ring in Tracer.Traces.
const ShardAll = -2
