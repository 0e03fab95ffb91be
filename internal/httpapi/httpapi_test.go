package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
)

// newTestServer serves a 30-annotation influenza study over d. The store
// returned is the study as generated — the reference the answers are
// checked against; only the deployment built over it (fromCore) serves
// that very store, so tests read what mutations did back over HTTP.
func newTestServer(t *testing.T, d deployment) (*httptest.Server, *core.Store) {
	t.Helper()
	store := influenzaStore(t, 30)
	return d.start(t, store, Options{}), store
}

// annotationCount reads the served store's annotation count.
func annotationCount(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	var stats core.Stats
	if code := getJSON(t, ts.URL+"/api/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	return stats.Annotations
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestStats(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, store := newTestServer(t, d)
		var stats core.Stats
		if code := getJSON(t, ts.URL+"/api/stats", &stats); code != 200 {
			t.Fatalf("status = %d", code)
		}
		if stats != store.Stats() {
			t.Fatalf("stats = %+v, want %+v", stats, store.Stats())
		}
	})
}

func TestListAndGetAnnotations(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, store := newTestServer(t, d)
		var list []map[string]interface{}
		if code := getJSON(t, ts.URL+"/api/annotations", &list); code != 200 {
			t.Fatalf("status = %d", code)
		}
		if len(list) != store.Stats().Annotations {
			t.Fatalf("listed %d, store has %d", len(list), store.Stats().Annotations)
		}
		// Keyword filter.
		var filtered []map[string]interface{}
		if code := getJSON(t, ts.URL+"/api/annotations?keyword=protease", &filtered); code != 200 {
			t.Fatalf("status = %d", code)
		}
		if len(filtered) == 0 || len(filtered) >= len(list) {
			t.Fatalf("keyword filter returned %d of %d", len(filtered), len(list))
		}
		// Single annotation.
		var one map[string]interface{}
		if code := getJSON(t, ts.URL+"/api/annotations/1", &one); code != 200 {
			t.Fatalf("status = %d", code)
		}
		if one["id"].(float64) != 1 {
			t.Fatalf("id = %v", one["id"])
		}
		if !strings.Contains(one["xml"].(string), "<annotation") {
			t.Fatal("xml missing")
		}
		// Missing annotation -> 404.
		if code := getJSON(t, ts.URL+"/api/annotations/99999", nil); code != 404 {
			t.Fatalf("missing annotation status = %d", code)
		}
		if code := getJSON(t, ts.URL+"/api/annotations/not-a-number", nil); code != 404 {
			t.Fatalf("bad id status = %d", code)
		}
	})
}

func TestCreateAndDeleteAnnotation(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, _ := newTestServer(t, d)
		before := annotationCount(t, ts)
		req := map[string]interface{}{
			"creator": "http-user",
			"date":    "2008-04-07",
			"title":   "posted over HTTP",
			"body":    "protease-ish observation",
			"tags":    map[string]string{"via": "httpapi"},
			"marks": []map[string]interface{}{
				{"type": "interval", "domain": "segment1", "lo": 10, "hi": 90},
				{"type": "clade", "objectId": "H5N1-phylogeny", "keys": []string{"duck", "chicken"}},
			},
			"terms": []map[string]string{{"Ontology": "go", "TermID": "protease"}},
		}
		var created map[string]interface{}
		if code := postJSON(t, ts.URL+"/api/annotations", req, &created); code != 201 {
			t.Fatalf("create status = %d", code)
		}
		if annotationCount(t, ts) != before+1 {
			t.Fatal("annotation not committed")
		}
		id := uint64(created["id"].(float64))
		xml := created["xml"].(string)
		for _, want := range []string{"http-user", `kind="clade"`, "<via>httpapi</via>"} {
			if !strings.Contains(xml, want) {
				t.Fatalf("created xml missing %q:\n%s", want, xml)
			}
		}
		// Delete it.
		delReq, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/api/annotations/%d", ts.URL, id), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(delReq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete status = %d", resp.StatusCode)
		}
		if annotationCount(t, ts) != before {
			t.Fatal("annotation not deleted")
		}
		// Bad mark -> 400.
		bad := map[string]interface{}{
			"creator": "x", "date": "2008-01-01",
			"marks": []map[string]interface{}{{"type": "interval", "domain": "segment1", "lo": 90, "hi": 10}},
		}
		if code := postJSON(t, ts.URL+"/api/annotations", bad, nil); code != 400 {
			t.Fatalf("bad mark status = %d", code)
		}
		// Unknown mark type -> 400.
		bad2 := map[string]interface{}{
			"creator": "x", "date": "2008-01-01",
			"marks": []map[string]interface{}{{"type": "hologram"}},
		}
		if code := postJSON(t, ts.URL+"/api/annotations", bad2, nil); code != 400 {
			t.Fatalf("unknown mark status = %d", code)
		}
		// Bad JSON -> 400.
		resp2, err := http.Post(ts.URL+"/api/annotations", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode != 400 {
			t.Fatalf("bad json status = %d", resp2.StatusCode)
		}
	})
}

// TestRepeatedBlockRowsShareReferent: a block mark whose keys name a row
// twice marks the block that names it once, so the two creates answer
// with one referent ID.
func TestRepeatedBlockRowsShareReferent(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, _ := newTestServer(t, d)
		var ids [2][]float64
		for i, keys := range [][]string{{"NC_00001"}, {"NC_00001", "NC_00001"}} {
			req := map[string]interface{}{
				"creator": "http-user", "date": "2008-04-07",
				"marks": []map[string]interface{}{
					{"type": "block", "objectId": "HA-alignment", "keys": keys, "lo": 3, "hi": 9},
				},
			}
			var created struct{ Referents []float64 }
			if code := postJSON(t, ts.URL+"/api/annotations", req, &created); code != 201 {
				t.Fatalf("create with rows %v: status %d", keys, code)
			}
			ids[i] = created.Referents
		}
		if len(ids[0]) != 1 || !slices.Equal(ids[0], ids[1]) {
			t.Fatalf("one block, referents %v and %v", ids[0], ids[1])
		}
	})
}

func TestSearchEndpoint(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, _ := newTestServer(t, d)
		var out []map[string]interface{}
		code := postJSON(t, ts.URL+"/api/search",
			map[string]string{"expr": "contains(/annotation/body, 'protease')"}, &out)
		if code != 200 {
			t.Fatalf("status = %d", code)
		}
		if len(out) == 0 {
			t.Fatal("no hits")
		}
		if code := postJSON(t, ts.URL+"/api/search", map[string]string{"expr": "((("}, nil); code != 400 {
			t.Fatalf("bad expr status = %d", code)
		}
	})
}

func TestQueryEndpoint(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, _ := newTestServer(t, d)
		var out queryResponse
		code := postJSON(t, ts.URL+"/api/query", map[string]interface{}{
			"query": `select contents where { ?a isa annotation ; contains "protease" . }`,
		}, &out)
		if code != 200 {
			t.Fatalf("status = %d", code)
		}
		if out.Matches == 0 || len(out.Annotations) == 0 {
			t.Fatalf("response = %+v", out)
		}
		// Max results respected.
		var capped queryResponse
		code = postJSON(t, ts.URL+"/api/query", map[string]interface{}{
			"query":      `select contents where { ?a isa annotation . }`,
			"maxResults": 2,
		}, &capped)
		if code != 200 || capped.Matches != 2 {
			t.Fatalf("capped = %+v (code %d)", capped, code)
		}
		// A negative cap is refused, not taken as lifting the query's own
		// limit.
		code = postJSON(t, ts.URL+"/api/query", map[string]interface{}{
			"query":      `select contents where { ?a isa annotation . } limit 2`,
			"maxResults": -1,
		}, nil)
		if code != 400 {
			t.Fatalf("negative maxResults status = %d", code)
		}
		// Syntax error -> 400.
		if code := postJSON(t, ts.URL+"/api/query", map[string]string{"query": "select nothing"}, nil); code != 400 {
			t.Fatalf("bad query status = %d", code)
		}
	})
}

func TestQueryExplain(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, _ := newTestServer(t, d)
		req := map[string]interface{}{
			"query": `select contents where {
	  ?a isa annotation ; contains "protease" .
	  ?r isa referent ; kind interval .
	  ?a annotates ?r .
	}`,
		}
		// Without the arg, no explain block.
		var plain queryResponse
		if code := postJSON(t, ts.URL+"/api/query", req, &plain); code != 200 {
			t.Fatalf("status = %d", code)
		}
		if plain.Explain != nil {
			t.Fatalf("explain block present without ?explain=1: %+v", plain.Explain)
		}
		// With it, the planner's decisions surface.
		var out queryResponse
		if code := postJSON(t, ts.URL+"/api/query?explain=1", req, &out); code != 200 {
			t.Fatalf("status = %d", code)
		}
		if out.Explain == nil {
			t.Fatal("no explain block in ?explain=1 response")
		}
		ex := out.Explain
		if len(ex.Order) != 2 || len(ex.CandidateCounts) != 2 || len(ex.Costs) != 2 || len(ex.Strategies) != 2 {
			t.Fatalf("incomplete explain block: %+v", ex)
		}
		semis := 0
		for _, strat := range ex.Strategies {
			if strings.HasPrefix(strat, "semi-join(") {
				semis++
			}
		}
		if semis != 1 {
			t.Fatalf("expected one semi-join step, strategies = %v", ex.Strategies)
		}
		if ex.BindingsTried == 0 {
			t.Fatalf("bindingsTried missing: %+v", ex)
		}
		if plain.Matches != out.Matches {
			t.Fatalf("explain changed results: %d vs %d", out.Matches, plain.Matches)
		}
	})
}

func TestReferentsEndpoint(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, _ := newTestServer(t, d)
		var refs []string
		// Planted protease chain starts at [0,50) on segment1.
		if code := getJSON(t, ts.URL+"/api/referents?domain=segment1&pos=10", &refs); code != 200 {
			t.Fatalf("status = %d", code)
		}
		if len(refs) == 0 {
			t.Fatal("no referents at a planted position")
		}
		if code := getJSON(t, ts.URL+"/api/referents?pos=10", nil); code != 400 {
			t.Fatalf("missing domain status = %d", code)
		}
		if code := getJSON(t, ts.URL+"/api/referents?domain=segment1", nil); code != 400 {
			t.Fatalf("missing pos status = %d", code)
		}
	})
}

func TestRelatedAndCorrelatedEndpoints(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, _ := newTestServer(t, d)
		// Create two annotations sharing a mark so "related" is non-empty.
		var a1 struct {
			ID uint64 `json:"id"`
		}
		for _, creator := range []string{"a", "b"} {
			req := map[string]interface{}{
				"creator": creator, "date": "2008-01-01",
				"marks": []map[string]interface{}{{"type": "interval", "domain": "segment1", "lo": 500, "hi": 600}},
			}
			if code := postJSON(t, ts.URL+"/api/annotations", req, &a1); code != 201 {
				t.Fatalf("create %s: %d", creator, code)
			}
		}
		var rel []map[string]interface{}
		if code := getJSON(t, fmt.Sprintf("%s/api/annotations/%d/related", ts.URL, a1.ID), &rel); code != 200 {
			t.Fatalf("status = %d", code)
		}
		if len(rel) == 0 {
			t.Fatal("no related annotations")
		}
		var corr []map[string]interface{}
		if code := getJSON(t, fmt.Sprintf("%s/api/annotations/%d/correlated", ts.URL, a1.ID), &corr); code != 200 {
			t.Fatalf("status = %d", code)
		}
		if len(corr) == 0 {
			t.Fatal("no correlated items")
		}
	})
}

func TestObjectsEndpoint(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, store := newTestServer(t, d)
		var all []map[string]string
		if code := getJSON(t, ts.URL+"/api/objects", &all); code != 200 {
			t.Fatalf("status = %d", code)
		}
		if len(all) != len(store.View().ObjectList()) {
			t.Fatalf("objects = %d, want %d", len(all), len(store.View().ObjectList()))
		}
		var trees []map[string]string
		if code := getJSON(t, ts.URL+"/api/objects?type=phylo_trees", &trees); code != 200 {
			t.Fatalf("status = %d", code)
		}
		if len(trees) != 1 || trees[0]["id"] != "H5N1-phylogeny" {
			t.Fatalf("tree objects = %v", trees)
		}
	})
}

// TestSnapshotEndpoint: GET /api/snapshot serves the binary checkpoint
// of the deployment, which is byte for byte the one-store checkpoint of
// the same state on every deployment, and loads back to it.
func TestSnapshotEndpoint(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		ts, store := newTestServer(t, d)
		resp, err := http.Get(ts.URL + "/api/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Errorf("Content-Type %q, want application/octet-stream", ct)
		}
		if want := checkpointOf(t, store); !bytes.Equal(body, want) {
			t.Fatalf("served %d bytes that differ from the %d of the store's checkpoint", len(body), len(want))
		}
		restored, err := persist.Read(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if restored.Stats() != store.Stats() {
			t.Fatalf("snapshot stats = %+v, want %+v", restored.Stats(), store.Stats())
		}
	})
}

func span(lo, hi int64) interval.Interval { return interval.Interval{Lo: lo, Hi: hi} }

// TestJSONBodyEndsAtItsValue: a route that decodes a JSON body takes one
// value and whitespace. Junk or a second value after it is a 400 that
// applies nothing; the same body followed by whitespace is served.
func TestJSONBodyEndsAtItsValue(t *testing.T) {
	ts, seed := newTestServer(t, overCore)
	var snap bytes.Buffer
	if err := persist.Write(seed, &snap); err != nil {
		t.Fatal(err)
	}
	want := seed.Stats().Annotations
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	rules := func() int {
		var rs []json.RawMessage
		if code := getJSON(t, ts.URL+"/api/rules", &rs); code != 200 {
			t.Fatalf("rules: %d", code)
		}
		return len(rs)
	}
	for _, tc := range []struct {
		path, body string
		ok         int
	}{
		{"/api/annotations", `{"creator":"x","date":"2008-01-01","marks":[{"type":"interval","domain":"segment1","lo":10,"hi":90}]}`, 201},
		{"/api/search", `{"expr":"contains(/annotation/body, 'protease')"}`, 200},
		{"/api/query", `{"query":"select contents where { ?a isa annotation ; contains \"protease\" . }"}`, 200},
		{"/api/rules", `{"id":"ov","edge":"overlap","domain":"segment1"}`, 201},
		{"/api/restore", strings.TrimSpace(snap.String()), 200},
	} {
		for _, tail := range []string{"garbage", tc.body, "}", " ,"} {
			anns, rs := annotationCount(t, ts), rules()
			if code := post(tc.path, tc.body+tail); code != http.StatusBadRequest {
				t.Errorf("POST %s with %.10q after the body: %d, want 400", tc.path, tail, code)
			}
			if annotationCount(t, ts) != anns || rules() != rs {
				t.Errorf("POST %s with %.10q after the body was applied", tc.path, tail)
			}
		}
		if code := post(tc.path, tc.body+" \n\t\r\n"); code != tc.ok {
			t.Errorf("POST %s followed by whitespace: %d, want %d", tc.path, code, tc.ok)
		}
	}
	if n := annotationCount(t, ts); n != want {
		t.Errorf("after the restore the store holds %d annotations, want the snapshot's %d", n, want)
	}
}
