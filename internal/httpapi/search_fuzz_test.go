package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"graphitti/internal/persist"
	"graphitti/internal/shard"
	"graphitti/internal/xquery"
)

// searchSeeds are POST /api/search bodies: the expressions the handler
// tests and the benchmark send, the attribute axis, comparisons and
// functions, and bodies that are not a search.
var searchSeeds = []string{
	`{"expr":"contains(/annotation/body, 'protease')"}`,
	`{"expr":"contains(/annotation/body, \"gene0042\")"}`,
	`{"expr":"//referent[@kind='interval'][@lo > 100]"}`,
	`{"expr":"/annotation[@id > 3]/meta/*[1]"}`,
	`{"expr":"count(//referent/@*) > 6 and //meta/* = 'gupta'"}`,
	`{"expr":"starts-with(/annotation/meta/*[2], '2007-0') or //ontologyRefs/ref[@term='kinase']"}`,
	`{"expr":"//referent/@*[last()]/.."}`,
	`{"expr":"string-length(normalize-space(//body)) - 5"}`,
	`{"expr":"((("}`,
	`{"expr":""}`,
	`{"expr":1}`,
	`{"expr":"//body","extra":true} trailing`,
	`{}`,
	`null`,
	`[]`,
	`{not json`,
}

// FuzzSearch: any POST /api/search body sent to an in-memory one-pipeline
// deployment over a small study is answered, never with a panic or a 5xx.
// A body that is not one JSON value followed by nothing but whitespace,
// or whose expression does not compile, is a 400; every answer but a 200 is the JSON error envelope; and a 200 is the
// byte-for-byte answer of the in-memory three-shard deployment holding the
// same study.
func FuzzSearch(f *testing.F) {
	for _, body := range searchSeeds {
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
	// An expression can be exponential in its nesting: the one-pipeline
	// deployment answers such a search with a 408, and the three-shard one
	// is only asked what the first answered in time.
	one := New(memorySet(s), Options{QueryTimeout: 2 * time.Second})
	sh := shard.New(3)
	if err := sh.Restore(snap); err != nil {
		f.Fatal(err)
	}
	three := New(sh, Options{})
	f.Fuzz(func(t *testing.T, body string) {
		rr := serve(one, "POST", "/api/search", body)
		if rr.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d: %s", rr.Code, rr.Body.Bytes())
		}
		var req searchRequest
		malformed := json.Unmarshal([]byte(body), &req) != nil // one value, then only whitespace
		if !malformed {
			_, err := xquery.Compile(req.Expr)
			malformed = err != nil
		}
		if malformed && rr.Code != http.StatusBadRequest {
			t.Fatalf("malformed search answered %d: %s", rr.Code, rr.Body.Bytes())
		}
		if rr.Code != http.StatusOK {
			var env errorBody
			if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error == "" ||
				rr.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("status %d without the JSON error envelope: %s", rr.Code, rr.Body.Bytes())
			}
			return
		}
		if other := serve(three, "POST", "/api/search", body); other.Code != http.StatusOK ||
			!bytes.Equal(other.Body.Bytes(), rr.Body.Bytes()) {
			t.Fatalf("three shards answered %d:\n%s\none pipeline answered 200:\n%s",
				other.Code, other.Body.Bytes(), rr.Body.Bytes())
		}
	})
}
