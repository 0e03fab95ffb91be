package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"graphitti/internal/persist"
	"graphitti/internal/query"
	"graphitti/internal/shard"
)

// queryRouteSeeds are POST /api/query bodies: the queries the handler tests
// and the benchmark send, each property an annotation variable can carry
// (creator reads the Dublin Core view), joins through referents and terms,
// a cap, and bodies that are not a query or do not parse.
var queryRouteSeeds = []string{
	parityQuery,
	`{"query":"select contents where { ?a isa annotation ; contains \"shared\" . ?b isa annotation ; contains \"shared\" . ?r isa referent . ?a annotates ?r . ?b annotates ?r . }","maxResults":3}`,
	`{"query":"select graph where { ?a isa annotation ; contains \"protease\" . ?r isa referent ; kind interval . ?a annotates ?r . } limit 3"}`,
	`{"query":"select graph where { ?a isa annotation ; contains \"protease\" . ?r isa referent ; kind interval . ?a annotates ?r . }"}`,
	`{"query":"select contents where { ?a isa annotation ; creator \"gupta\" . }"}`,
	`{"query":"select contents where { ?a isa annotation ; creator gupta ; contains protease . ?t isa term ; under protease . ?a refersTo ?t . }"}`,
	`{"query":"select contents where { ?a isa annotation ; xpath \"//meta/*[1] = 'gupta'\" . }"}`,
	`{"query":"select referents where { ?r isa referent ; domain segment1 ; overlaps [100, 900) . ?o isa object . ?r marks ?o . }"}`,
	`{"query":"select referents where { ?r isa referent . ?s isa referent . } constrain overlapping(?r, ?s) limit 2"}`,
	`{"query":"select contents where { ?a isa annotation ; derived . }","maxResults":1}`,
	`{"query":"select contents where { ?a isa annotation . ?a isa annotation . }"}`,
	`{"query":"select contents where { ?a isa annotation ; xpath \"(((\" . }"}`,
	`{"query":"select nothing"}`,
	`{"query":""}`,
	`{"query":1}`,
	`{"query":"select contents where { }","maxResults":-1}`,
	`{}`,
	`null`,
	`{not json`,
}

// FuzzQueryRoute: any POST /api/query body sent to an in-memory
// one-pipeline deployment over a small study is answered, never with a
// panic or a 5xx. A body that is not one JSON value followed by nothing
// but whitespace, or whose query does not parse, is a 400; every answer but a 200 is the JSON error envelope; and a
// 200 is the in-memory three-shard deployment's answer to the same body,
// byte for byte but for what each store gives of its own (see
// Views.Query): the planner's variable order, the order of the subgraphs
// (shard by shard), and under a cap which matches survive — there the
// counts agree. One disagreement is the contract: a pattern the query
// package reports as disconnected (a cross product) is a 400 on three
// shards, which would miss every pair spanning two of them.
func FuzzQueryRoute(f *testing.F) {
	for _, body := range queryRouteSeeds {
		f.Add(body)
	}
	snap, err := persist.Export(influenzaStore(f, 12))
	if err != nil {
		f.Fatal(err)
	}
	s, err := persist.Load(snap)
	if err != nil {
		f.Fatal(err)
	}
	// A join can be exponential in its variables: the one-pipeline
	// deployment answers such a query with a 408, and the three-shard one is
	// only asked what the first answered in time.
	one := New(memorySet(s), Options{QueryTimeout: 2 * time.Second})
	sh := shard.New(3)
	if err := sh.Restore(snap); err != nil {
		f.Fatal(err)
	}
	three := New(sh, Options{})
	f.Fuzz(func(t *testing.T, body string) {
		rr := serve(one, "POST", "/api/query", body)
		if rr.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d: %s", rr.Code, rr.Body.Bytes())
		}
		var req queryRequest
		var q *query.Query
		err := json.Unmarshal([]byte(body), &req) // one value, then only whitespace
		if err == nil {
			q, err = query.Parse(req.Query)
		}
		if err != nil && rr.Code != http.StatusBadRequest {
			t.Fatalf("malformed query answered %d: %s", rr.Code, rr.Body.Bytes())
		}
		if rr.Code != http.StatusOK {
			var env errorBody
			if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error == "" ||
				rr.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("status %d without the JSON error envelope: %s", rr.Code, rr.Body.Bytes())
			}
			return
		}
		other := serve(three, "POST", "/api/query", body)
		if len(q.Components()) > 1 {
			if other.Code != http.StatusBadRequest || !bytes.Contains(other.Body.Bytes(), []byte("no edge joins")) {
				t.Fatalf("three shards answered a disconnected pattern %d, want 400: %s", other.Code, other.Body.Bytes())
			}
			return
		}
		capped := req.MaxResults > 0 || q.Limit > 0
		if other.Code != http.StatusOK ||
			!bytes.Equal(storeFree(t, other.Body.Bytes(), capped), storeFree(t, rr.Body.Bytes(), capped)) {
			t.Fatalf("three shards answered %d:\n%s\none pipeline answered 200:\n%s",
				other.Code, other.Body.Bytes(), rr.Body.Bytes())
		}
	})
}

// storeFree re-encodes a POST /api/query answer without what each store
// gives of its own: the planner's order, and the subgraphs' order. Of a
// capped answer it keeps the counts only.
func storeFree(t *testing.T, body []byte, capped bool) []byte {
	t.Helper()
	var a struct {
		Matches     int               `json:"matches"`
		Annotations []json.RawMessage `json:"annotations,omitempty"`
		Referents   []string          `json:"referents,omitempty"`
		Subgraphs   []json.RawMessage `json:"subgraphs,omitempty"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	slices.SortFunc(a.Subgraphs, func(x, y json.RawMessage) int { return bytes.Compare(x, y) })
	if capped {
		return fmt.Appendf(nil, "%d matches, %d annotations, %d referents, %d subgraphs",
			a.Matches, len(a.Annotations), len(a.Referents), len(a.Subgraphs))
	}
	out, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
