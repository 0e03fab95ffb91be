package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"slices"
	"testing"

	"graphitti/internal/durable"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/shard"
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

// FuzzRules: any POST /api/rules body sent to a durable one-pipeline
// deployment over a small study with a rule of its own is answered, never
// with a panic or a 5xx. A refused body leaves GET /api/rules and GET
// /api/snapshot byte-identical and is answered with the JSON error
// envelope. An accepted rule is listed, and survives a compaction — the
// rules section of a checkpoint — and a reopen: the reopened store lists
// the same rules and derives the same facts.
func FuzzRules(f *testing.F) {
	for _, body := range rulesSeeds {
		f.Add(body)
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
	f.Fuzz(func(t *testing.T, body string) {
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
		snapBefore := serve(h, "GET", "/api/snapshot", "").Body.Bytes()

		rr := serve(h, "POST", "/api/rules", body)
		if rr.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d: %s", rr.Code, rr.Body.Bytes())
		}
		if rr.Code != http.StatusCreated {
			var env errorBody
			if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error == "" {
				t.Fatalf("status %d without the JSON error envelope: %s", rr.Code, rr.Body.Bytes())
			}
			if got := serve(h, "GET", "/api/rules", "").Body.Bytes(); !bytes.Equal(got, rulesBefore) {
				t.Fatalf("a refused rule (%d) changed the rule list:\n%s\nto\n%s", rr.Code, rulesBefore, got)
			}
			if got := serve(h, "GET", "/api/snapshot", "").Body.Bytes(); !bytes.Equal(got, snapBefore) {
				t.Fatalf("a refused rule (%d: %s) changed the snapshot", rr.Code, rr.Body.Bytes())
			}
			return
		}

		var added prop.Rule
		if err := json.Unmarshal(rr.Body.Bytes(), &added); err != nil {
			t.Fatal(err)
		}
		rules, derived := prop.RulesOf(d.Core()), slices.Collect(d.Core().View().DerivedEach)
		if !slices.ContainsFunc(rules, func(r prop.Rule) bool { return r.ID == added.ID }) {
			t.Fatalf("accepted rule %q is not listed: %v", added.ID, rules)
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := durable.Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen after the rule %s: %v", body, err)
		}
		defer again.Close()
		if got := prop.RulesOf(again.Core()); !reflect.DeepEqual(got, rules) {
			t.Fatalf("rules after a compaction and a reopen:\n%v\nwant\n%v", got, rules)
		}
		if got := slices.Collect(again.Core().View().DerivedEach); !reflect.DeepEqual(got, derived) {
			t.Fatalf("after a compaction and a reopen %d derived facts, want %d", len(got), len(derived))
		}
	})
}
