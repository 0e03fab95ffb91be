// Package obs is Graphitti's dependency-free metrics layer: a registry
// of atomic counters, gauges and fixed-bucket histograms, with
// Prometheus text-format exposition (see expo.go), an expvar-style JSON
// dump, and a flat-CSV dump for bench comparisons.
//
// # Model
//
// A metric family has a unique name, a help string, a kind, and zero or
// more label names. Unlabeled families are a single instrument; labeled
// families ("vecs") lazily materialize one instrument ("child") per
// distinct label-value tuple. Construction registers the family;
// constructing two families with the same name panics, which keeps names
// process-unique — the property docs/METRICS.md is tested against.
//
// Instruments are designed for hot paths: Counter.Inc and Gauge.Set are
// one atomic instruction, Histogram.Observe is a short linear bucket
// scan plus two atomic updates, and Vec.With is a read-locked map lookup
// (callers on known-hot label sets should hold the returned child).
//
// # Process scope
//
// Like Prometheus client libraries, the Default registry is
// process-global: every store, WAL writer and query processor in the
// process feeds the same families. Counters and histograms are
// cumulative so concurrent instances simply sum; gauges (WAL size, view
// epoch, health state) are last-writer-wins and meaningful in the
// one-store-per-process deployment graphitti-server runs.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind enumerates the metric kinds the registry exposes.
type Kind uint8

// The metric kinds, matching the Prometheus TYPE names.
const (
	// KindCounter is a monotonically increasing cumulative count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution with sum and count.
	KindHistogram
)

// String returns the Prometheus TYPE name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// DefBuckets are the default latency buckets, in seconds: 5µs to 2.5s,
// covering everything from an in-memory commit (~tens of µs) to a slow
// fsync or a full-store query.
var DefBuckets = []float64{
	5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5,
}

// CountBuckets are power-of-two size buckets (1 to 512) for counted
// quantities such as records per flush batch.
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Counter is a monotonically increasing counter. The zero value is
// usable but unregistered; use NewCounter (or a CounterVec) to get a
// registered one.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets are cumulative at
// exposition time (Prometheus le semantics); Observe is lock-free.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	inf    atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			h.count.Add(1)
			h.sum.add(v)
			return
		}
	}
	h.inf.Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket containing it, the standard histogram_quantile
// estimate. Observations beyond the last finite bound clamp to that
// bound. Returns NaN when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, b := range h.bounds {
		n := h.counts[i].Load()
		if float64(cum)+float64(n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if n == 0 {
				return b
			}
			return lo + (b-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// bucketCumulative returns the cumulative count at each finite bound,
// plus the total (the +Inf bucket). Used by the exposition writers.
func (h *Histogram) bucketCumulative() ([]uint64, uint64) {
	out := make([]uint64, len(h.bounds))
	cum := uint64(0)
	for i := range h.bounds {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out, cum + h.inf.Load()
}

// atomicFloat is a float64 updated by CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nxt := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nxt) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// family is one registered metric name: its metadata plus either a
// single unlabeled instrument or a map of labeled children.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram families only

	// single is the unlabeled instrument (nil for vecs).
	single any

	// mu guards children for vec families.
	mu       sync.RWMutex
	children map[string]any
	keys     []string // sorted child keys, maintained on insert
}

// child returns (creating if needed) the instrument for one label-value
// tuple.
func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var nc any
	switch f.kind {
	case KindCounter:
		nc = &Counter{}
	case KindGauge:
		nc = &Gauge{}
	case KindHistogram:
		nc = newHistogram(f.bounds)
	}
	f.children[key] = nc
	i := sort.SearchStrings(f.keys, key)
	f.keys = append(f.keys, "")
	copy(f.keys[i+1:], f.keys[i:])
	f.keys[i] = key
	return nc
}

// labelKey joins label values with a separator that cannot appear in a
// sanitized value.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

func splitLabelKey(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, "\x1f")
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use). The number of values must match the family's label names.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).(*Gauge) }

// Reset drops every child of the family. For collector-maintained vecs
// whose label sets churn (top-K routing keys): Reset then re-fill at
// scrape time keeps the exposed series exactly the current set, instead
// of accumulating every label value ever seen.
func (v *GaugeVec) Reset() {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	clear(v.f.children)
	v.f.keys = v.f.keys[:0]
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// Registry holds metric families and renders them (expo.go). The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // sorted

	cmu        sync.Mutex
	collectors []func()
}

// Default is the process-global registry every instrumented package
// registers into and the /metrics endpoint serves.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var validNameChars = func() [128]bool {
	var ok [128]bool
	for c := 'a'; c <= 'z'; c++ {
		ok[c] = true
	}
	for c := 'A'; c <= 'Z'; c++ {
		ok[c] = true
	}
	for c := '0'; c <= '9'; c++ {
		ok[c] = true
	}
	ok['_'] = true
	ok[':'] = true
	return ok
}()

// validName reports whether name is a legal Prometheus metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 128 || !validNameChars[c] || (i == 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

// register adds a family or panics on a duplicate or invalid name —
// metric registration is init-time program structure, not runtime input.
func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) || strings.Contains(l, ":") {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %s", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", f.name))
	}
	r.families[f.name] = f
	i := sort.SearchStrings(r.names, f.name)
	r.names = append(r.names, "")
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = f.name
}

// RegisterCollector adds a hook run at the start of every exposition
// (WritePrometheus, WriteJSON), for values that are cheaper to
// compute at scrape time than to keep current — process gauges sampled
// from the runtime, top-K sketches synced into a gauge vec. Collectors
// run serially in registration order; they must not block.
func (r *Registry) RegisterCollector(fn func()) {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// collect runs the registered collectors. The lock is held across the
// runs so concurrent scrapes don't interleave a Reset-and-refill
// collector with another's reads.
func (r *Registry) collect() {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	for _, fn := range r.collectors {
		fn()
	}
}

// Names returns the registered family names, sorted. This is the surface
// the docs/METRICS.md parity test diffs against.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// sorted returns the families in name order.
func (r *Registry) sorted() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.names))
	for _, name := range r.names {
		out = append(out, r.families[name])
	}
	return out
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: KindCounter, single: c})
	return c
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: KindGauge, single: g})
	return g
}

// Histogram registers and returns an unlabeled histogram with the given
// bucket upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	h := newHistogram(buckets)
	r.register(&family{name: name, help: help, kind: KindHistogram, bounds: h.bounds, single: h})
	return h
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, kind: KindCounter, labels: labels, children: map[string]any{}}
	r.register(f)
	return &CounterVec{f}
}

// GaugeVec registers and returns a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := &family{name: name, help: help, kind: KindGauge, labels: labels, children: map[string]any{}}
	r.register(f)
	return &GaugeVec{f}
}

// HistogramVec registers and returns a labeled histogram family with the
// given bucket upper bounds (nil means DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	f := &family{name: name, help: help, kind: KindHistogram, labels: labels,
		bounds: bs, children: map[string]any{}}
	r.register(f)
	return &HistogramVec{f}
}

// NewCounter registers an unlabeled counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewGauge registers an unlabeled gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewHistogram registers an unlabeled histogram in the Default registry
// (nil buckets means DefBuckets).
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.Histogram(name, help, buckets)
}

// NewCounterVec registers a labeled counter family in the Default
// registry.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.CounterVec(name, help, labels...)
}

// NewGaugeVec registers a labeled gauge family in the Default registry.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return Default.GaugeVec(name, help, labels...)
}

// NewHistogramVec registers a labeled histogram family in the Default
// registry (nil buckets means DefBuckets).
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return Default.HistogramVec(name, help, buckets, labels...)
}
