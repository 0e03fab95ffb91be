package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"graphitti/internal/query"
)

// queryResponse is the struct the query route handed to encoding/json,
// with the wire encoder's array spliced in, before it wrote its envelope
// around the streamed array itself. It lives on as the oracle: the route's
// bytes must be what json.Encoder writes for it.
type queryResponse struct {
	Matches     int             `json:"matches"`
	Order       []string        `json:"order"`
	Annotations json.RawMessage `json:"annotations,omitempty"`
	Referents   []string        `json:"referents,omitempty"`
	Subgraphs   []subgraphView  `json:"subgraphs,omitempty"`
	Explain     *explainView    `json:"explain,omitempty"`
}

// refQuery is the reference body of POST /api/query for res, built as the
// route built it with the annotations in annotationView's encoding.
func refQuery(t testing.TB, res *query.Result, explain bool) []byte {
	resp := queryResponse{Matches: res.Stats.Matches, Order: res.Stats.Order}
	if explain {
		resp.Explain = &explainView{
			Order:           res.Stats.Order,
			CandidateCounts: res.Stats.CandidateCounts,
			Costs:           res.Stats.Costs,
			Strategies:      res.Stats.Strategies,
			BindingsTried:   res.Stats.BindingsTried,
		}
	}
	if len(res.Annotations) > 0 {
		resp.Annotations = bytes.TrimSuffix(refList(t, res.Annotations), []byte("\n"))
	}
	for _, ref := range res.Referents {
		resp.Referents = append(resp.Referents, ref.String())
	}
	for _, sg := range res.Subgraphs {
		sv := subgraphView{Edges: sg.EdgeCount()}
		for _, n := range sg.Nodes {
			sv.Nodes = append(sv.Nodes, n.String())
		}
		resp.Subgraphs = append(resp.Subgraphs, sv)
	}
	return refEncode(t, resp)
}

// TestQueryEnvelopeMatchesEncodingJSON: the envelope POST /api/query
// writes around its streamed annotations is byte for byte encoding/json's
// for queryResponse — with no annotations, referents only, subgraphs,
// ?explain=1, a nil order, and an uncapped answer longer than one chunk,
// which goes out without a Content-Length. No query the route parses has
// a nil order, so that case is the answer to another query with its order
// taken away, written by the route's writer.
func TestQueryEnvelopeMatchesEncodingJSON(t *testing.T) {
	sh := memorySet(influenzaStore(t, 200))
	h := New(sh, Options{})
	const all = `select contents where { ?a isa annotation . }`
	for _, c := range []struct {
		name, query string
		explain     bool
		check       func(*query.Result) bool
	}{
		{"no annotations", `select contents where { ?a isa annotation ; contains "no-such-word" . }`, false,
			func(r *query.Result) bool { return len(r.Annotations) == 0 && r.Stats.Order != nil }},
		{"referents only", `select referents where { ?r isa referent ; domain segment1 ; overlaps [100, 900) . ?o isa object . ?r marks ?o . }`, false,
			func(r *query.Result) bool { return len(r.Referents) > 0 && len(r.Annotations) == 0 }},
		{"subgraphs", `select graph where { ?a isa annotation ; contains "protease" . ?r isa referent ; kind interval . ?a annotates ?r . } limit 3`, false,
			func(r *query.Result) bool { return len(r.Subgraphs) > 0 }},
		{"explain", `select contents where { ?a isa annotation ; contains "protease" . ?r isa referent ; kind interval . ?a annotates ?r . }`, true,
			func(r *query.Result) bool { return len(r.Annotations) > 0 }},
		{"nil order", all, false, func(r *query.Result) bool {
			r.Stats.Order = nil
			return true
		}},
		{"longer than a chunk", all, false,
			func(r *query.Result) bool { return len(r.Annotations) == r.Stats.Matches && r.Stats.Matches >= 200 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := sh.Views().Query(context.Background(), c.query, query.DefaultOptions)
			if err != nil {
				t.Fatal(err)
			}
			if !c.check(res) {
				t.Fatalf("the query does not give the case: %d annotations, %d referents, %d subgraphs",
					len(res.Annotations), len(res.Referents), len(res.Subgraphs))
			}
			want := refQuery(t, res, c.explain)
			var rr *httptest.ResponseRecorder
			if c.name == "nil order" {
				rr = httptest.NewRecorder()
				writeQuery(rr, httptest.NewRequest("POST", "/api/query", nil), res, false)
				if !bytes.Contains(want, []byte(`"order":null`)) {
					t.Fatalf("the oracle writes no null order: %s", want)
				}
			} else {
				target := "/api/query"
				if c.explain {
					target += "?explain=1"
				}
				body, _ := json.Marshal(queryRequest{Query: c.query})
				rr = serve(h, "POST", target, string(body))
			}
			if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), want) {
				t.Fatalf("status %d, body differs from encoding/json's\n got %s\nwant %s", rr.Code, rr.Body.Bytes(), want)
			}
			cl := rr.Header().Get("Content-Length")
			// Each case's answer is well under one chunk or several long.
			if len(want) >= 2*wireChunk {
				if cl != "" {
					t.Fatalf("Content-Length %q on a streamed %d-byte answer", cl, len(want))
				}
			} else if cl != fmt.Sprint(len(want)) {
				t.Fatalf("Content-Length %q for %d bytes", cl, len(want))
			}
		})
	}
}

// listRequestAlloc is the least number of bytes one GET /api/annotations
// to the server at url allocates, client included, over a few repeats
// after a warm-up; it also returns the answer's length.
func listRequestAlloc(t *testing.T, c *http.Client, url string) (alloc uint64, n int) {
	t.Helper()
	get := func() int {
		resp, err := c.Get(url + "/api/annotations")
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("list: %d, %v", resp.StatusCode, err)
		}
		// The handler is done once the middleware has counted it.
		for deadline := time.Now().Add(5 * time.Second); mHTTPInFlight.Value() != 0; {
			if time.Now().After(deadline) {
				t.Fatal("the list request is still in flight")
			}
			runtime.Gosched()
		}
		return int(n)
	}
	get()
	var m runtime.MemStats
	alloc = ^uint64(0)
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		n = get()
		runtime.ReadMemStats(&m)
		alloc = min(alloc, m.TotalAlloc-before)
	}
	return alloc, n
}

// listAllocSlack is what one list request may allocate beside the
// []*Annotation slice of its answer, whatever its length: the request and
// the response on both sides of the connection, and net/http's few bytes
// per chunk (an 8k-annotation listing is about 170 chunks). Measured: the
// 8k listing allocates about 2 KiB above the 1k listing plus 8 B per extra
// annotation.
const listAllocSlack = 16 << 10

// TestListAnswersStream: a list answer several chunks long arrives
// chunked, without a Content-Length, and byte for byte as encoding/json
// writes it; a short one keeps its Content-Length; and a list request
// allocates its answer's []*Annotation slice and a constant, not its
// answer: the listings of 1k and 8k annotations differ by at most 8 B per
// extra annotation plus listAllocSlack.
func TestListAnswersStream(t *testing.T) {
	s := influenzaStore(t, 1000)
	ts := httptest.NewServer(New(memorySet(s), Options{TraceRingSize: 1}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/annotations")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d, %v", resp.StatusCode, err)
	}
	if want := refList(t, s.View().Annotations()); !bytes.Equal(body, want) {
		t.Fatalf("the streamed list differs from encoding/json's (%d bytes, want %d)", len(body), len(want))
	}
	if len(body) < 4*wireChunk {
		t.Fatalf("a %d-byte list is not several chunks long", len(body))
	}
	if te := resp.TransferEncoding; len(te) != 1 || te[0] != "chunked" || resp.Header.Get("Content-Length") != "" {
		t.Fatalf("streamed list: Transfer-Encoding %q, Content-Length %q; want chunked and none",
			te, resp.Header.Get("Content-Length"))
	}
	resp, err = http.Get(ts.URL + "/api/annotations?keyword=no-such-word")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength != int64(len("[]\n")) || resp.TransferEncoding != nil {
		t.Fatalf("short list: Content-Length %d, Transfer-Encoding %q; want 3 and none",
			resp.ContentLength, resp.TransferEncoding)
	}

	if testing.Short() {
		t.Skip("builds an 8k-annotation store")
	}
	big := influenzaStore(t, 8000)
	bigTS := httptest.NewServer(New(memorySet(big), Options{TraceRingSize: 1}))
	defer bigTS.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := &http.Client{Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	small, smallAnswer := listRequestAlloc(t, c, ts.URL)
	large, largeAnswer := listRequestAlloc(t, c, bigTS.URL)
	n, m := s.Stats().Annotations, big.Stats().Annotations
	t.Logf("listing %d annotations: %d KiB answer, %d KiB allocated; %d: %d KiB, %d KiB",
		n, smallAnswer>>10, small>>10, m, largeAnswer>>10, large>>10)
	if limit := small + 8*uint64(m-n) + listAllocSlack; large > limit {
		t.Errorf("listing %d annotations allocated %d B, over the %d-annotation listing's %d B + 8 B per extra annotation + %d",
			m, large, n, small, listAllocSlack)
	}
}

// TestClientGoneMidAnswer: when the client goes after the first chunk of a
// list, the handler encodes at most one more chunk, whose write fails, and
// returns; the middleware counts the request with the 200 it sent, and
// nothing is logged as failed.
func TestClientGoneMidAnswer(t *testing.T) {
	var logs syncBuffer
	h := New(memorySet(influenzaStore(t, 300)), Options{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	ok := mHTTPRequests.With("GET /api/annotations", "GET", "200")
	before := ok.Value()
	w := &failingResponse{discardResponse: discardResponse{h: http.Header{}}, after: 1}
	h.ServeHTTP(w, httptest.NewRequest("GET", "/api/annotations", nil))
	if len(w.sizes) != 2 {
		t.Fatalf("writes of %v bytes: want the first chunk and one more, whose write fails", w.sizes)
	}
	for _, n := range w.sizes {
		if n < wireChunk || n > 2*wireChunk {
			t.Fatalf("write sizes %v: want chunks of one to two wireChunk", w.sizes)
		}
	}
	rr := serve(h, "GET", "/debug/traces?route=GET+/api/annotations", "")
	var traces tracesView
	if err := json.Unmarshal(rr.Body.Bytes(), &traces); err != nil || traces.Count != 1 {
		t.Fatalf("traces of the list route: %v (%s)", err, rr.Body.Bytes())
	}
	// Past the two chunks written, the encoding adds the answer's closing
	// newline and nothing more.
	enc := findSpan(traces.Traces[0], "encode")
	if enc == nil || enc.Attrs["bytes"] != fmt.Sprint(w.sizes[0]+w.sizes[1]+len("\n")) {
		t.Fatalf("encode span %+v: want the bytes of the two chunks written, %v, and no more", enc, w.sizes)
	}
	if got := ok.Value(); got != before+1 {
		t.Fatalf("200s counted on the list route: %d -> %d, want one more", before, got)
	}
	if got := logs.String(); strings.Contains(got, "request failed") || strings.Contains(got, "request aborted") {
		t.Fatalf("a request whose client went was logged as failed:\n%s", got)
	}
}
