package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"graphitti/internal/durable"
	"graphitti/internal/prop"
	"graphitti/internal/shard"
	"graphitti/internal/trace"
)

// collectKinds walks a span tree into a set of span kinds.
func collectKinds(n *trace.Node, seen map[string]bool) {
	if n == nil {
		return
	}
	seen[n.Name] = true
	for _, c := range n.Children {
		collectKinds(c, seen)
	}
}

// doTraced POSTs body to rawURL and decodes the ?trace=1 envelope.
func doTraced(t *testing.T, rawURL string, body interface{}) (*http.Response, tracedEnvelope) {
	t.Helper()
	resp, raw := doJSON(t, "POST", rawURL, body)
	var env tracedEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("traced envelope: %v (%s)", err, raw)
	}
	return resp, env
}

// TestTracedCommitShardedDurable is the acceptance path: a ?trace=1
// commit against a 4-shard durable store with a propagation rule
// installed returns a span tree covering the whole pipeline — HTTP root,
// router dispatch, shard writer, commit critical section, propagation
// delta, WAL group-commit flush.
func TestTracedCommitShardedDurable(t *testing.T) {
	const shards = 4
	sh, err := shard.Open(t.TempDir(), shards, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ts := httptest.NewServer(NewShardedHandler(sh))
	defer ts.Close()

	domain := keyOnShard(t, shards, 2, "chr")
	registerDomainSeq(t, sh, domain)
	if err := sh.AddRule(prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: domain}); err != nil {
		t.Fatal(err)
	}

	// Join an upstream trace: the root span must adopt this trace ID.
	const upstream = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, err := http.NewRequest("POST", ts.URL+"/api/annotations?trace=1",
		bytes.NewReader(mustJSON(t, seqAnnReq(domain))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", upstream)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("traced create: %d (%s)", resp.StatusCode, raw)
	}

	// The response carries a traceparent continuing the upstream trace.
	tp := resp.Header.Get("traceparent")
	if !strings.HasPrefix(tp, "00-4bf92f3577b34da6a3ce929d0e0e4736-") || len(tp) != 55 {
		t.Fatalf("response traceparent %q does not continue upstream trace", tp)
	}

	var env tracedEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("traced envelope: %v (%s)", err, raw)
	}
	if env.Trace == nil {
		t.Fatalf("no trace in envelope: %s", raw)
	}
	if env.Trace.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID %q, want the upstream's", env.Trace.TraceID)
	}
	var created struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(env.Response, &created); err != nil || created.ID == 0 {
		t.Fatalf("envelope response is not the created annotation: %s", env.Response)
	}

	seen := map[string]bool{}
	collectKinds(env.Trace, seen)
	for _, kind := range []string{"http", "router", "shard.writer", "commit", "prop.delta", "wal.flush"} {
		if !seen[kind] {
			t.Errorf("span kind %q missing from traced commit tree: %s", kind, raw)
		}
	}

	// The writer span is tagged with the routed shard; the flush span
	// carries that shard's batch ID.
	writer := findSpan(env.Trace, "shard.writer")
	if writer == nil || writer.Shard == nil || *writer.Shard != 2 {
		t.Fatalf("shard.writer span not tagged with home shard 2: %s", raw)
	}
	flush := findSpan(env.Trace, "wal.flush")
	if flush == nil || !strings.HasPrefix(flush.Attrs["batch"], "2#") {
		t.Fatalf("wal.flush span has no shard-2 batch ID: %s", raw)
	}

	// The forced trace is retrievable from the ring, and the filters
	// narrow to it.
	assertDebugTraces(t, ts.URL, env.Trace.TraceID, 2)
}

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// findSpan returns the first span of the given kind in the tree.
func findSpan(n *trace.Node, kind string) *trace.Node {
	if n == nil {
		return nil
	}
	if n.Name == kind {
		return n
	}
	for _, c := range n.Children {
		if got := findSpan(c, kind); got != nil {
			return got
		}
	}
	return nil
}

// assertDebugTraces checks GET /debug/traces serves the recorded trace
// and that the route, shard and min-duration filters behave.
func assertDebugTraces(t *testing.T, base, traceID string, homeShard int) {
	t.Helper()
	fetch := func(params url.Values) tracesView {
		t.Helper()
		resp, body := doJSON(t, "GET", base+"/debug/traces?"+params.Encode(), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/debug/traces?%s: %d (%s)", params.Encode(), resp.StatusCode, body)
		}
		var v tracesView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	hasTrace := func(v tracesView) bool {
		for _, n := range v.Traces {
			if n.TraceID == traceID {
				return true
			}
		}
		return false
	}

	if v := fetch(url.Values{}); !hasTrace(v) {
		t.Fatalf("trace %s not in unfiltered /debug/traces (%d traces)", traceID, v.Count)
	}
	if v := fetch(url.Values{"route": {"POST /api/annotations"}, "shard": {strconv.Itoa(homeShard)}}); !hasTrace(v) {
		t.Fatalf("trace %s not found under its route+shard filter", traceID)
	}
	if v := fetch(url.Values{"route": {"GET /api/stats"}}); hasTrace(v) {
		t.Fatal("route filter matched a different route's trace")
	}
	if v := fetch(url.Values{"min": {"10h"}}); v.Count != 0 {
		t.Fatalf("min=10h returned %d traces, want 0", v.Count)
	}
	resp, _ := doJSON(t, "GET", base+"/debug/traces?min=banana", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad min filter: %d, want 400", resp.StatusCode)
	}
	resp, _ = doJSON(t, "GET", base+"/debug/traces?shard=banana", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad shard filter: %d, want 400", resp.StatusCode)
	}
}

// TestRequestIDEchoAllRoutes pins the pre-dispatch header write: every
// route — including /metrics, /debug/*, and unmatched paths, whose
// handlers write their bodies directly — echoes X-Request-Id and a
// traceparent.
func TestRequestIDEchoAllRoutes(t *testing.T) {
	ts := httptest.NewServer(New(memorySet(smallStore(t)), Options{EnablePprof: true}))
	defer ts.Close()
	for _, path := range []string{
		"/metrics", "/debug/traces", "/debug/pprof/",
		"/api/stats", "/no/such/route",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if id := resp.Header.Get("X-Request-Id"); id == "" {
			t.Errorf("GET %s: no X-Request-Id echoed", path)
		}
		if tp := resp.Header.Get("traceparent"); len(tp) != 55 || !strings.HasPrefix(tp, "00-") {
			t.Errorf("GET %s: bad traceparent %q", path, tp)
		}
	}
}

// scrapeMetrics fetches /metrics and returns the raw exposition text.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestSpanKindsHaveHistograms is the trace/metrics invariant: every span
// kind appearing in a live trace has a non-zero sample count in the
// graphitti_trace_span_duration_seconds histogram family, and the traced
// request's span total reconciles with its route's histogram observation.
func TestSpanKindsHaveHistograms(t *testing.T) {
	const shards = 2
	sh, err := shard.Open(t.TempDir(), shards, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ts := httptest.NewServer(NewShardedHandler(sh))
	defer ts.Close()

	domain := keyOnShard(t, shards, 1, "chr")
	registerDomainSeq(t, sh, domain)
	if err := sh.AddRule(prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: domain}); err != nil {
		t.Fatal(err)
	}

	sumBefore := histogramSum(t, scrapeMetrics(t, ts.URL),
		"graphitti_http_request_duration_seconds", `route="POST /api/annotations"`)

	resp, env := doTraced(t, ts.URL+"/api/annotations?trace=1", seqAnnReq(domain))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("traced create: %d", resp.StatusCode)
	}
	// Exercise the read-path kinds too.
	doJSON(t, "POST", ts.URL+"/api/search", map[string]string{"expr": "contains(/annotation/body, 'written')"})
	doJSON(t, "POST", ts.URL+"/api/query", map[string]string{"query": "select ?a where { ?a contains \"written\" }"})

	text := scrapeMetrics(t, ts.URL)
	seen := map[string]bool{}
	collectKinds(env.Trace, seen)
	if len(seen) < 5 {
		t.Fatalf("traced commit produced only kinds %v", seen)
	}
	for kind := range seen {
		needle := fmt.Sprintf(`graphitti_trace_span_duration_seconds_count{kind=%q}`, kind)
		if !strings.Contains(text, needle) {
			t.Errorf("span kind %q has no duration histogram sample in /metrics", kind)
		}
	}

	// Reconciliation: the route histogram's added observation covers the
	// root span (middleware entry to exit) — at least the span's duration,
	// and not implausibly more.
	sumAfter := histogramSum(t, text,
		"graphitti_http_request_duration_seconds", `route="POST /api/annotations"`)
	obsSeconds := sumAfter - sumBefore
	spanSeconds := float64(env.Trace.DurationMicros) / 1e6
	if obsSeconds < spanSeconds {
		t.Errorf("histogram observed %.6fs < root span %.6fs", obsSeconds, spanSeconds)
	}
	if obsSeconds-spanSeconds > 0.25 {
		t.Errorf("histogram observed %.6fs, root span %.6fs: gap too large to be one request", obsSeconds, spanSeconds)
	}
}

// histogramSum extracts a histogram family's _sum sample for a label
// match (0 when the series does not exist yet).
func histogramSum(t *testing.T, exposition, family, label string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(family) + `_sum\{([^}]*)\} ([0-9eE.+-]+)$`)
	for _, m := range re.FindAllStringSubmatch(exposition, -1) {
		if strings.Contains(m[1], label) {
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				t.Fatalf("bad sum sample %q: %v", m[0], err)
			}
			return v
		}
	}
	return 0
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowRequestLogged checks the -slow-request path: a request over
// the threshold gets a structured line with the span breakdown.
func TestSlowRequestLogged(t *testing.T) {
	var logs syncBuffer
	ts := httptest.NewServer(New(memorySet(smallStore(t)), Options{
		SlowRequest: time.Nanosecond,
		Logger:      slog.New(slog.NewTextHandler(&logs, nil)),
	}))
	defer ts.Close()

	resp, _ := doJSON(t, "GET", ts.URL+"/api/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := logs.String()
		if strings.Contains(got, "slow request") &&
			strings.Contains(got, "spans=") && strings.Contains(got, "http") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slow-request line with span breakdown; logs:\n%s", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceSampling checks SampleEvery drops untraced requests from the
// rings while ?trace=1 is always retained.
func TestTraceSampling(t *testing.T) {
	ts := httptest.NewServer(New(memorySet(smallStore(t)), Options{
		TraceSampleEvery: 1000,
	}))
	defer ts.Close()

	for i := 0; i < 5; i++ {
		doJSON(t, "GET", ts.URL+"/api/stats", nil)
	}
	resp, body := doJSON(t, "GET", ts.URL+"/api/stats?trace=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced stats: %d", resp.StatusCode)
	}
	var env tracedEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Trace == nil {
		t.Fatalf("traced stats envelope: %v (%s)", err, body)
	}

	resp, body = doJSON(t, "GET", ts.URL+"/debug/traces", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d", resp.StatusCode)
	}
	var v tracesView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range v.Traces {
		if n.TraceID == env.Trace.TraceID {
			found = true
		}
		if n.Attrs["route"] == "GET /api/stats" && n.TraceID != env.Trace.TraceID {
			t.Fatalf("sampled-out request leaked into the ring: %s", body)
		}
	}
	if !found {
		t.Fatal("?trace=1 request was not force-recorded past sampling")
	}
}
