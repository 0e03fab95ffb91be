package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/shard"
	"graphitti/internal/workload"
)

// rulesSeeds are POST /api/rules bodies: a rule of every edge kind, one
// with every field, a rule the seed already has, and bodies that are not
// a rule or not a valid one.
var rulesSeeds = []string{
	`{"id":"ov2","edge":"overlap","domain":"segment2"}`,
	`{"id":"co","edge":"coregistered"}`,
	`{"id":"cl","edge":"closure","ontology":"go","term":"protease","relations":["is_a"]}`,
	`{"id":"sr","edge":"shared-referent","keyword":"protease","kind":"interval"}`,
	`{"id":"all","keyword":"kinase","ontology":"go","term":"kinase","domain":"segment1","kind":"interval","edge":"overlap","relations":["is_a","part_of"]}`,
	`{"id":"ov","edge":"overlap","domain":"segment1"}`,
	`{"id":"","edge":"overlap"}`,
	`{"id":"bad","edge":"warp"}`,
	`{"id":"cl2","edge":"closure","ontology":"no-such-ontology"}`,
	`{"id":1,"edge":"overlap"}`,
	`{"id":"x","edge":"overlap"} trailing`,
	`{}`,
	`null`,
	`[]`,
	`{not json`,
}

// rulesDeletions pair a POST /api/rules body with the ID a DELETE
// /api/rules/{id} names after it: the seed's own rule, the rule just
// added, one after a refused body, and an ID no rule has.
var rulesDeletions = [][2]string{
	{`{"id":"ov2","edge":"overlap","domain":"segment2"}`, "ov"},
	{`{"id":"sr","edge":"shared-referent","keyword":"protease","kind":"interval"}`, "sr"},
	{`{}`, "ov"},
	{`null`, "no-such-rule"},
}

// FuzzRules: any POST /api/rules body, and then any DELETE /api/rules/{id},
// sent to a durable one-pipeline deployment over a small study with a
// rule of its own, is answered, never with a panic or a 5xx. A refused
// body or deletion leaves GET /api/rules byte-identical and the state as
// it was (workload.Diff); a refused body is answered with the JSON error
// envelope. An accepted rule is listed, and an accepted deletion unlists
// its rule and leaves a view with no anomaly (workload.Check: its derived
// facts are what a from-scratch recompute over the remaining rules
// derives). Either survives a compaction — the rules section of a
// checkpoint — and a reopen: the reopened store holds the same state
// (workload.Diff: the same rules and the same derived facts).
func FuzzRules(f *testing.F) {
	for _, body := range rulesSeeds {
		f.Add(body, "")
	}
	for _, c := range rulesDeletions {
		f.Add(c[0], c[1])
	}
	seed := influenzaStore(f, 12)
	if err := prop.Attach(seed).AddRule(prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: "segment1"}); err != nil {
		f.Fatal(err)
	}
	snap, err := persist.Export(seed)
	if err != nil {
		f.Fatal(err)
	}
	opts := durable.Options{NoSync: true, CompactThreshold: -1}
	f.Fuzz(func(t *testing.T, body, del string) {
		dir := t.TempDir()
		d, err := durable.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := d.Restore(snap); err != nil {
			t.Fatal(err)
		}
		h := New(shard.Single(d), Options{})
		rulesBefore := serve(h, "GET", "/api/rules", "").Body.Bytes()
		stateBefore := []*core.View{d.Core().View()}
		unchanged := func(what string, rr *httptest.ResponseRecorder) {
			t.Helper()
			if got := serve(h, "GET", "/api/rules", "").Body.Bytes(); !bytes.Equal(got, rulesBefore) {
				t.Fatalf("a refused %s (%d) changed the rule list:\n%s\nto\n%s", what, rr.Code, rulesBefore, got)
			}
			if err := workload.Diff([]*core.View{d.Core().View()}, stateBefore); err != nil {
				t.Fatalf("a refused %s (%d: %s) changed the state: %v", what, rr.Code, rr.Body.Bytes(), err)
			}
		}
		changed := false

		rr := serve(h, "POST", "/api/rules", body)
		if rr.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d: %s", rr.Code, rr.Body.Bytes())
		}
		if rr.Code != http.StatusCreated {
			var env errorBody
			if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error == "" {
				t.Fatalf("status %d without the JSON error envelope: %s", rr.Code, rr.Body.Bytes())
			}
			unchanged("rule", rr)
		} else {
			var added prop.Rule
			if err := json.Unmarshal(rr.Body.Bytes(), &added); err != nil {
				t.Fatal(err)
			}
			if rules := prop.RulesOf(d.Core().View()); !slices.ContainsFunc(rules, func(r prop.Rule) bool { return r.ID == added.ID }) {
				t.Fatalf("accepted rule %q is not listed: %v", added.ID, rules)
			}
			changed = true
		}

		if del != "" {
			rulesBefore = serve(h, "GET", "/api/rules", "").Body.Bytes()
			stateBefore = []*core.View{d.Core().View()}
			rr := serve(h, "DELETE", "/api/rules/"+url.PathEscape(del), "")
			switch {
			case rr.Code >= http.StatusInternalServerError:
				t.Fatalf("deleting %q: status %d: %s", del, rr.Code, rr.Body.Bytes())
			case rr.Code != http.StatusNoContent:
				unchanged("deletion", rr)
			default:
				if rules := prop.RulesOf(d.Core().View()); slices.ContainsFunc(rules, func(r prop.Rule) bool { return r.ID == del }) {
					t.Fatalf("deleted rule %q is still listed: %v", del, rules)
				}
				if err := workload.Check([]*core.View{d.Core().View()}); err != nil {
					t.Fatalf("after deleting %q: %v", del, err)
				}
				changed = true
			}
		}
		if !changed {
			return
		}

		before := []*core.View{d.Core().View()}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := durable.Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen after the rule %s and the deletion %q: %v", body, del, err)
		}
		defer again.Close()
		if err := workload.Diff([]*core.View{again.Core().View()}, before); err != nil {
			t.Fatalf("after a compaction and a reopen: %v", err)
		}
	})
}
