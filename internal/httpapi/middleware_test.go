package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphitti/internal/core"
	"graphitti/internal/obs"
	"graphitti/internal/prop"
	"graphitti/internal/shard"
)

// jsonDecode strictly decodes one JSON value from r.
func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// smallStore builds a tiny influenza study for servers the shared
// newTestServer helper doesn't fit.
func smallStore(t *testing.T) *core.Store { return influenzaStore(t, 3) }

var (
	reReqSample = regexp.MustCompile(`^graphitti_http_requests_total\{(.*)\} (\S+)$`)
	reDurSample = regexp.MustCompile(`^graphitti_http_request_duration_seconds_count\{(.*)\} (\S+)$`)
	reRouteLbl  = regexp.MustCompile(`route="([^"]*)"`)
)

// routeMetricSnapshot reads the process registry and returns, per route
// label, the request-counter total (summed over method/status) and the
// latency-histogram sample count.
func routeMetricSnapshot(t *testing.T) (reqs, durs map[string]float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	reqs = make(map[string]float64)
	durs = make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, spec := range []struct {
			re   *regexp.Regexp
			dest map[string]float64
		}{{reReqSample, reqs}, {reDurSample, durs}} {
			m := spec.re.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			route := reRouteLbl.FindStringSubmatch(m[1])
			if route == nil {
				t.Fatalf("sample without route label: %s", line)
			}
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				t.Fatalf("bad sample value in %q: %v", line, err)
			}
			spec.dest[route[1]] += v
		}
	}
	return reqs, durs
}

// TestMiddlewareRouteConformance drives one request through every entry
// in routeDefs and requires that exactly that route's counter and
// latency histogram advance by one — so no route can be registered
// outside the instrumented mux.
func TestMiddlewareRouteConformance(t *testing.T) {
	ts, _ := newTestServer(t, overCore)

	targets := make([]struct{ method, path, pattern string }, 0, len(routeDefs)+1)
	for _, def := range routeDefs {
		method, path, ok := strings.Cut(def.pattern, " ")
		if !ok {
			t.Fatalf("route pattern without method: %q", def.pattern)
		}
		path = strings.NewReplacer("{id}", "1").Replace(path)
		targets = append(targets, struct{ method, path, pattern string }{method, path, def.pattern})
	}
	// A miss must land on the fallback label, not vanish.
	targets = append(targets, struct{ method, path, pattern string }{"GET", "/no/such/route", "unmatched"})

	for _, tgt := range targets {
		before, beforeDur := routeMetricSnapshot(t)
		req, err := http.NewRequest(tgt.method, ts.URL+tgt.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tgt.method, tgt.path, err)
		}
		resp.Body.Close()
		// A streamed body (/metrics, /api/snapshot) is at the client before
		// its handler returns and is counted; the in-flight gauge drops
		// only after the request is.
		for deadline := time.Now().Add(5 * time.Second); mHTTPInFlight.Value() != 0; {
			if time.Now().After(deadline) {
				t.Fatalf("%s %s: still %d requests in flight", tgt.method, tgt.path, mHTTPInFlight.Value())
			}
			runtime.Gosched()
		}
		after, afterDur := routeMetricSnapshot(t)

		if got := after[tgt.pattern] - before[tgt.pattern]; got != 1 {
			t.Errorf("%s %s: counter for route %q advanced by %v, want 1",
				tgt.method, tgt.path, tgt.pattern, got)
		}
		if got := afterDur[tgt.pattern] - beforeDur[tgt.pattern]; got != 1 {
			t.Errorf("%s %s: histogram count for route %q advanced by %v, want 1",
				tgt.method, tgt.path, tgt.pattern, got)
		}
		// No other route may move: one request, one label.
		for route, v := range after {
			if route != tgt.pattern && v != before[route] {
				t.Errorf("%s %s: unrelated route %q counter moved %v -> %v",
					tgt.method, tgt.path, route, before[route], v)
			}
		}
	}
}

// TestRequestIDPropagation covers the correlation-ID contract: IDs are
// generated when absent, echoed when acceptable, replaced when hostile,
// and embedded in JSON error envelopes.
func TestRequestIDPropagation(t *testing.T) {
	ts, _ := newTestServer(t, overCore)

	t.Run("generated", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get(requestIDHeader)
		if len(id) != 16 {
			t.Fatalf("generated request ID %q, want 16 hex chars", id)
		}
	})

	t.Run("echoed", func(t *testing.T) {
		req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
		req.Header.Set(requestIDHeader, "upstream-trace-42")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(requestIDHeader); got != "upstream-trace-42" {
			t.Fatalf("request ID not echoed: got %q", got)
		}
	})

	t.Run("hostile replaced", func(t *testing.T) {
		req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
		req.Header.Set(requestIDHeader, strings.Repeat("x", 65))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(requestIDHeader); len(got) != 16 {
			t.Fatalf("over-long client ID not replaced: got %q", got)
		}
	})

	t.Run("in error envelope", func(t *testing.T) {
		req, _ := http.NewRequest("GET", ts.URL+"/api/annotations/999999", nil)
		req.Header.Set(requestIDHeader, "envelope-check")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
		var body struct {
			Error     string `json:"error"`
			RequestID string `json:"requestId"`
		}
		if err := jsonDecode(resp.Body, &body); err != nil {
			t.Fatal(err)
		}
		if body.RequestID != "envelope-check" {
			t.Fatalf("error envelope requestId = %q, want %q", body.RequestID, "envelope-check")
		}
		if body.Error == "" {
			t.Fatal("error envelope missing message")
		}
	})
}

// TestMetricsEndpointValidExposition scrapes GET /metrics and runs the
// strict format validator over the payload: the endpoint must always
// serve parseable Prometheus text with the core families present.
func TestMetricsEndpointValidExposition(t *testing.T) {
	ts, _ := newTestServer(t, overCore)

	// Touch a few subsystems first so their samples exist.
	for _, path := range []string{"/api/stats", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	exp, err := obs.ValidateExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if len(exp.Families) < 20 {
		t.Fatalf("only %d metric families exposed, want >= 20", len(exp.Families))
	}
	for _, name := range []string{
		"graphitti_http_requests_total",
		"graphitti_http_request_duration_seconds",
		"graphitti_store_commit_duration_seconds",
		"graphitti_store_view_epoch",
		"graphitti_query_duration_seconds",
	} {
		if _, ok := exp.Families[name]; !ok {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
}

// histogramCount sums a histogram family's _count over every label set in
// the process registry.
func histogramCount(t *testing.T, family string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, family+"_count{") && !strings.HasPrefix(line, family+"_count ") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestHistogramCountsCountOps: each latency histogram's _count, summed
// over shards, counts the ops it times — commits, deletes, propagation
// deltas (one per commit or delete on a shard with rules) and query runs
// (one per shard a query asks) — which is what an operator reads in place
// of a separate counter.
func TestHistogramCountsCountOps(t *testing.T) {
	const shards, commits, deletes, queries = 2, 6, 2, 3
	sh := shard.New(shards)
	domains := make([]string, shards)
	for k := range domains {
		domains[k] = keyOnShard(t, shards, k, "dom")
		registerDomainSeq(t, sh, domains[k])
	}
	if err := sh.AddRule(prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: domains[0]}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sh, Options{}))
	defer ts.Close()

	families := []string{
		"graphitti_store_commit_duration_seconds",
		"graphitti_store_delete_duration_seconds",
		"graphitti_store_propagation_delta_seconds",
		"graphitti_query_duration_seconds",
	}
	before := make([]float64, len(families))
	for i, f := range families {
		before[i] = histogramCount(t, f)
	}
	var ids []uint64
	for i := 0; i < commits; i++ {
		var out struct{ ID uint64 }
		if code := postJSON(t, ts.URL+"/api/annotations", seqAnnReq(domains[i%shards]), &out); code != http.StatusCreated {
			t.Fatalf("commit %d: status %d", i, code)
		}
		ids = append(ids, out.ID)
	}
	for _, id := range ids[:deletes] {
		if code := doDelete(t, fmt.Sprintf("%s/api/annotations/%d", ts.URL, id)); code != http.StatusNoContent {
			t.Fatalf("delete %d: status %d", id, code)
		}
	}
	q := map[string]string{"query": `select contents where { ?a isa annotation ; contains "written" . }`}
	for i := 0; i < queries; i++ {
		if code := postJSON(t, ts.URL+"/api/query", q, nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	for i, want := range []float64{commits, deletes, commits + deletes, shards * queries} {
		if got := histogramCount(t, families[i]) - before[i]; got != want {
			t.Errorf("%s_count moved by %v, want %v", families[i], got, want)
		}
	}
}

// TestPprofGating: the profiling handlers exist only when opted in.
func TestPprofGating(t *testing.T) {
	ts, _ := newTestServer(t, overCore)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without -pprof: %d", resp.StatusCode)
	}

	on := httptest.NewServer(New(memorySet(smallStore(t)), Options{EnablePprof: true}))
	t.Cleanup(on.Close)
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof not reachable with EnablePprof: %d", resp.StatusCode)
	}
}
