package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/shard"
)

// newPropStore builds a store with two overlapping interval annotations
// on domain chr1.
func newPropStore(t *testing.T) *core.Store {
	t.Helper()
	s := core.NewStore()
	sq, err := seq.New("NC_1", seq.DNA, strings.Repeat("ACGT", 500))
	if err != nil {
		t.Fatal(err)
	}
	sq.Domain = "chr1"
	if err := s.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}
	for _, span := range []interval.Interval{{Lo: 100, Hi: 200}, {Lo: 150, Hi: 250}} {
		m, err := s.MarkDomainInterval("chr1", span)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(s.NewAnnotation().Creator("t").Date("2026-01-01").Body("site").Refer(m)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func doDelete(t *testing.T, url string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestRuleCRUDAndProvenance(t *testing.T) {
	deployments(t, testRuleCRUDAndProvenance)
}

func testRuleCRUDAndProvenance(t *testing.T, d deployment) {
	ts := d.start(t, newPropStore(t), Options{})

	var rules []prop.Rule
	if code := getJSON(t, ts.URL+"/api/rules", &rules); code != http.StatusOK || len(rules) != 0 {
		t.Fatalf("empty rule list: code=%d rules=%v", code, rules)
	}

	rule := prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: "chr1"}
	if code := postJSON(t, ts.URL+"/api/rules", rule, nil); code != http.StatusCreated {
		t.Fatalf("add rule: %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/rules", rule, nil); code != http.StatusConflict {
		t.Fatalf("duplicate rule: %d, want 409", code)
	}
	if code := postJSON(t, ts.URL+"/api/rules", prop.Rule{ID: "bad", Edge: "warp"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad rule: %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/api/rules", &rules); code != http.StatusOK || len(rules) != 1 || rules[0].ID != "ov" {
		t.Fatalf("rule list: code=%d rules=%v", code, rules)
	}

	// Stats expose the materialized fact count.
	var st struct{ Derived int }
	if code := getJSON(t, ts.URL+"/api/stats", &st); code != http.StatusOK || st.Derived != 2 {
		t.Fatalf("stats: code=%d derived=%d, want 2", code, st.Derived)
	}

	// Provenance of annotation 2: it derives onto annotation 1's referent
	// and annotation 1 derives onto its.
	var pv struct {
		ID         uint64
		Derives    []factView
		Provenance []factView
	}
	if code := getJSON(t, ts.URL+"/api/provenance/2", &pv); code != http.StatusOK {
		t.Fatalf("provenance: %d", code)
	}
	if len(pv.Derives) != 1 || pv.Derives[0].Rule != "ov" || pv.Derives[0].TargetKind != "referent" {
		t.Fatalf("derives = %+v", pv.Derives)
	}
	if code := getJSON(t, ts.URL+"/api/provenance/99", nil); code != http.StatusNotFound {
		t.Fatalf("provenance of missing annotation: %d", code)
	}

	if code := doDelete(t, ts.URL+"/api/rules/ov"); code != http.StatusNoContent {
		t.Fatalf("delete rule: %d", code)
	}
	if code := doDelete(t, ts.URL+"/api/rules/ov"); code != http.StatusNotFound {
		t.Fatalf("delete missing rule: %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/api/stats", &st); code != http.StatusOK || st.Derived != 0 {
		t.Fatalf("stats after rule delete: derived=%d, want 0", st.Derived)
	}
}

// TestDurableRuleSurvivesReopen checks rules added over a handler whose
// pipelines log are WAL-logged and the derived table is rebuilt on
// reopen — for one pipeline at the directory root and for three under it.
func TestDurableRuleSurvivesReopen(t *testing.T) {
	deployments(t, func(t *testing.T, d deployment) {
		if !d.durable {
			t.Skip("no log to reopen")
		}
		dir := t.TempDir()
		sh, err := shard.Open(dir, d.shards, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sq, err := seq.New("NC_1", seq.DNA, strings.Repeat("ACGT", 500))
		if err != nil {
			t.Fatal(err)
		}
		sq.Domain = "chr1"
		if err := sh.Apply(persist.SequenceOp(sq)); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewShardedHandler(sh))
		rule := prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: "chr1"}
		if code := postJSON(t, ts.URL+"/api/rules", rule, nil); code != http.StatusCreated {
			t.Fatalf("add rule: %d", code)
		}
		for _, span := range []interval.Interval{{Lo: 100, Hi: 200}, {Lo: 150, Hi: 250}} {
			m, err := sh.MarkDomainInterval("chr1", span)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sh.Commit(sh.NewAnnotation().Creator("t").Date("2026-01-01").Body("x").Refer(m)); err != nil {
				t.Fatal(err)
			}
		}
		ts.Close()
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}

		sh2, err := shard.Open(dir, 0, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer sh2.Close()
		ts2 := httptest.NewServer(NewShardedHandler(sh2))
		defer ts2.Close()
		var rules []prop.Rule
		if code := getJSON(t, ts2.URL+"/api/rules", &rules); code != http.StatusOK || len(rules) != 1 {
			t.Fatalf("recovered rules: code=%d rules=%v", code, rules)
		}
		var pv struct{ Derives []factView }
		if code := getJSON(t, fmt.Sprintf("%s/api/provenance/%d", ts2.URL, 1), &pv); code != http.StatusOK {
			t.Fatalf("provenance after reopen: %d", code)
		}
		if len(pv.Derives) != 1 {
			t.Fatalf("derived facts not rebuilt on reopen: %+v", pv)
		}
	})
}
