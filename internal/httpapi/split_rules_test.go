package httpapi

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"syscall"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/faultfs"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/shard"
)

// derivedKeys lists the derived facts of views, each printed, sorted.
func derivedKeys(views ...*core.View) []string {
	var keys []string
	for _, v := range views {
		v.DerivedEach(func(f core.DerivedFact) bool {
			keys = append(keys, fmt.Sprintf("%+v", f))
			return true
		})
	}
	slices.Sort(keys)
	return keys
}

// TestSplitRulesRefused: a rule broadcast that a write fault on shard 1
// cut short leaves the rule on shard 0 only. GET /api/rules and GET
// /api/snapshot then refuse with 409 before writing a byte of an answer,
// since no one rule set is the one the shards' derived facts were
// computed under. Re-issuing the broadcast converges the shards: both
// answer 200, and the snapshot loads to the derived table being served.
func TestSplitRulesRefused(t *testing.T) {
	const shards = 2
	sc := faultfs.NewScript()
	sh, err := shard.Open(t.TempDir(), shards, durable.Options{Inject: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ts := httptest.NewServer(NewShardedHandler(sh))
	defer ts.Close()
	// Two annotations of one mark on each shard: the rule derives facts
	// on both.
	for k := 0; k < shards; k++ {
		domain := keyOnShard(t, shards, k, "chr")
		registerDomainSeq(t, sh, domain)
		for i := 0; i < 2; i++ {
			if resp, body := doJSON(t, "POST", ts.URL+"/api/annotations", seqAnnReq(domain)); resp.StatusCode != http.StatusCreated {
				t.Fatalf("write on shard %d: %d (%s)", k, resp.StatusCode, body)
			}
		}
	}

	rule := prop.Rule{ID: "conv", Edge: prop.EdgeSharedReferent}
	sc.FailPath(faultfs.OpWrite, "shard-1", 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpWrite, syscall.EIO)})
	if code := postJSON(t, ts.URL+"/api/rules", rule, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("a broadcast shard 1 fails to log: %d, want 503", code)
	}
	if resp, body := doJSON(t, "POST", ts.URL+"/api/recover?shard=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recover shard 1: %d (%s)", resp.StatusCode, body)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	for _, path := range []string{"/api/rules", "/api/snapshot"} {
		if code, body := get(path); code != http.StatusConflict || !bytes.Contains(body, []byte("rule sets differ")) {
			t.Fatalf("GET %s over split rule sets: %d %q, want 409", path, code, body)
		}
	}

	if code := postJSON(t, ts.URL+"/api/rules", rule, nil); code != http.StatusCreated {
		t.Fatalf("re-issued broadcast: %d", code)
	}
	var rules []prop.Rule
	if code := getJSON(t, ts.URL+"/api/rules", &rules); code != http.StatusOK || len(rules) != 1 || rules[0].ID != "conv" {
		t.Fatalf("GET /api/rules after the re-issue: %d %v", code, rules)
	}
	code, snap := get("/api/snapshot")
	if code != http.StatusOK {
		t.Fatalf("GET /api/snapshot after the re-issue: %d %q", code, snap)
	}
	served := derivedKeys(sh.Views()...)
	loaded, err := persist.Read(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got := derivedKeys(loaded.View()); len(served) == 0 || !slices.Equal(got, served) {
		t.Fatalf("the snapshot loads to %d derived facts, %d are served:\n%v\n%v", len(got), len(served), got, served)
	}
}
