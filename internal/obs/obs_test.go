package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	for _, v := range []float64{0.5, 0.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 15.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	cum, total := h.bucketCumulative()
	if want := []uint64{2, 3, 4}; cum[0] != want[0] || cum[1] != want[1] || cum[2] != want[2] {
		t.Fatalf("cumulative = %v, want %v", cum, want)
	}
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	// p50: rank 2.5 falls in the first bucket (cum 2 at le=1 < 2.5 ≤ 3 at
	// le=2): lo=1, interpolate (2.5-2)/1 into [1,2] = 1.5.
	if got := h.Quantile(0.5); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 1.5", got)
	}
	// p99: rank 4.95 is past the last finite bound — clamps to 4.
	if got := h.Quantile(0.99); got != 4 {
		t.Fatalf("p99 = %v, want 4 (clamped)", got)
	}
}

func TestVecChildrenAndArity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_reqs_total", "reqs", "route", "method")
	v.With("/api/stats", "GET").Inc()
	v.With("/api/stats", "GET").Inc()
	v.With("/api/query", "POST").Inc()
	if got := v.With("/api/stats", "GET").Value(); got != 2 {
		t.Fatalf("child = %d, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch should panic")
		}
	}()
	v.With("onlyone")
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	r.Gauge("test_dup_total", "y")
}

func TestNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "z")
	r.Gauge("aa_depth", "a")
	r.Counter("mm_total", "m")
	got := r.Names()
	want := []string{"aa_depth", "mm_total", "zz_total"}
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "c")
	h := r.Histogram("test_conc_seconds", "h", []float64{0.5, 1})
	v := r.CounterVec("test_conc_labeled_total", "cv", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j%2) + 0.25)
				v.With([]string{"a", "b", "c"}[n%3]).Inc()
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	var labeled uint64
	for _, k := range []string{"a", "b", "c"} {
		labeled += v.With(k).Value()
	}
	if labeled != 8000 {
		t.Fatalf("labeled sum = %d, want 8000", labeled)
	}
}

// goldenRegistry builds a registry with one of each shape: unlabeled
// counter/gauge/histogram plus labeled families, including a label value
// that needs escaping.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("g_commits_total", "Total commits.").Add(42)
	r.Gauge("g_epoch", "Current view epoch.").Set(17)
	h := r.Histogram("g_commit_seconds", "Commit latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(3)
	v := r.CounterVec("g_requests_total", `Requests by route — help with "quotes" and \backslash.`, "route", "status")
	v.With("/api/query", "200").Add(9)
	v.With(`/weird"path\n`, "500").Inc()
	hv := r.HistogramVec("g_route_seconds", "Latency by route.", []float64{0.01, 0.1}, "route")
	hv.With("/api/stats").Observe(0.02)
	return r
}

const goldenText = `# HELP g_commit_seconds Commit latency.
# TYPE g_commit_seconds histogram
g_commit_seconds_bucket{le="0.001"} 1
g_commit_seconds_bucket{le="0.01"} 1
g_commit_seconds_bucket{le="0.1"} 2
g_commit_seconds_bucket{le="+Inf"} 3
g_commit_seconds_sum 3.0505
g_commit_seconds_count 3
# HELP g_commits_total Total commits.
# TYPE g_commits_total counter
g_commits_total 42
# HELP g_epoch Current view epoch.
# TYPE g_epoch gauge
g_epoch 17
# HELP g_requests_total Requests by route — help with "quotes" and \\backslash.
# TYPE g_requests_total counter
g_requests_total{route="/api/query",status="200"} 9
g_requests_total{route="/weird\"path\\n",status="500"} 1
# HELP g_route_seconds Latency by route.
# TYPE g_route_seconds histogram
g_route_seconds_bucket{route="/api/stats",le="0.01"} 0
g_route_seconds_bucket{route="/api/stats",le="0.1"} 1
g_route_seconds_bucket{route="/api/stats",le="+Inf"} 1
g_route_seconds_sum{route="/api/stats"} 0.02
g_route_seconds_count{route="/api/stats"} 1
`

// TestPrometheusGolden pins the exact text rendering, then feeds it back
// through the strict parser — the golden/parse round-trip the CI scrape
// step relies on.
func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenText {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, goldenText)
	}
	exp, err := ValidateExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if got, want := len(exp.Families), 5; got != want {
		t.Fatalf("parsed %d families, want %d", got, want)
	}
	if exp.Families["g_commit_seconds"] != "histogram" {
		t.Fatalf("g_commit_seconds type = %q", exp.Families["g_commit_seconds"])
	}
	// 6 histogram lines + 1 + 1 + 2 + 5 = 15 samples.
	if got, want := exp.Samples, 15; got != want {
		t.Fatalf("parsed %d samples, want %d", got, want)
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := []struct{ name, in string }{
		{"bad name", "9bad_name 1\n"},
		{"bad value", "ok_metric notafloat\n"},
		{"unterminated labels", "ok_metric{a=\"b\" 1\n"},
		{"unquoted label", "ok_metric{a=b} 1\n"},
		{"duplicate sample", "m 1\nm 2\n"},
		{"second TYPE", "# TYPE m counter\n# TYPE m gauge\nm 1\n"},
		{"TYPE after samples", "m 1\n# TYPE m counter\n"},
		{"unknown type", "# TYPE m flub\nm 1\n"},
		{"histogram missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"missing newline", "m 1"},
	}
	for _, c := range cases {
		if _, err := ValidateExposition(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

func TestWriteJSONIsValidJSON(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, b.String())
	}
	if out["g_commits_total"] != float64(42) {
		t.Fatalf("g_commits_total = %v, want 42", out["g_commits_total"])
	}
	hist, ok := out["g_commit_seconds"].(map[string]any)
	if !ok || hist["count"] != float64(3) {
		t.Fatalf("g_commit_seconds = %v", out["g_commit_seconds"])
	}
	labeled, ok := out["g_requests_total"].(map[string]any)
	if !ok {
		t.Fatalf("g_requests_total = %v", out["g_requests_total"])
	}
	if labeled[`route=/api/query,status=200`] != float64(9) {
		t.Fatalf("labeled child = %v", labeled)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(DefBuckets)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.00042)
		}
	})
}

func BenchmarkVecWith(b *testing.B) {
	r := NewRegistry()
	v := r.CounterVec("bench_total", "b", "route", "method", "status")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v.With("/api/query", "POST", "200").Inc()
		}
	})
}
