package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/ontology"
	"graphitti/internal/prop"
)

// digitBoundarySeed returns a store whose annotations and referents 9,
// 10 and 100 — one digit, two and three — mark one object, segment1's
// sequence, with intervals that all overlap, under an overlap rule on
// segment1. The 97 other annotations mark segments 2 and 3, so that
// annotation i holds referent i.
func digitBoundarySeed(t *testing.T) *core.Store {
	t.Helper()
	s := core.NewStore()
	for d := 1; d <= 3; d++ {
		sq, err := seq.New(fmt.Sprintf("seg%d", d), seq.DNA, strings.Repeat("ACGT", 64))
		if err != nil {
			t.Fatal(err)
		}
		sq.Domain = fmt.Sprintf("segment%d", d)
		if err := s.RegisterSequence(sq); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 100; i++ {
		domain, iv, body := fmt.Sprintf("segment%d", 2+i%2), span(2*i, 2*i+1), "filler"
		if i == 9 || i == 10 || i == 100 {
			domain, iv, body = "segment1", span(100+i, 240), "digit boundary"
		}
		m, err := s.MarkDomainInterval(domain, iv)
		if err != nil {
			t.Fatal(err)
		}
		ann, err := s.Commit(s.NewAnnotation().Creator("c").Date("2008-01-01").
			Title(fmt.Sprintf("t%d", i)).Body(body).Refer(m))
		if err != nil {
			t.Fatal(err)
		}
		if refs := slices.Collect(ann.ReferentIDs); ann.ID != uint64(i) || !slices.Equal(refs, []uint64{uint64(i)}) {
			t.Fatalf("annotation %d holds referents %v, want %d and [%d]", ann.ID, refs, i, i)
		}
	}
	if err := prop.Attach(s).AddRule(prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: "segment1"}); err != nil {
		t.Fatal(err)
	}
	return s
}

// digitBoundaryQuery binds two distinct annotations marking one object
// through their referents: a match's subgraph holds two content nodes and
// two referent nodes.
const digitBoundaryQuery = `{"query":"select graph where { ?a isa annotation ; contains \"boundary\" . ` +
	`?b isa annotation ; contains \"boundary\" . ?r isa referent . ?s isa referent . ?o isa object . ` +
	`?a annotates ?r . ?b annotates ?s . ?r marks ?o . ?s marks ?o . } constrain distinct(?a, ?b)"}`

// The answers of the parent layout, where a node's key was a decimal
// string, byte for byte.
var (
	wantCorrelated = map[int]string{
		9: `[{"kind":"content","key":"10/1","label":"annotates","description":"annotation 10 (t10)"},` +
			`{"kind":"content","key":"100/1","label":"annotates","description":"annotation 100 (t100)"},` +
			`{"kind":"object","key":"dna_sequences/seg1","label":"marks","description":"object dna_sequences/seg1"}]`,
		10: `[{"kind":"content","key":"100/1","label":"annotates","description":"annotation 100 (t100)"},` +
			`{"kind":"content","key":"9/1","label":"annotates","description":"annotation 9 (t9)"},` +
			`{"kind":"object","key":"dna_sequences/seg1","label":"marks","description":"object dna_sequences/seg1"}]`,
		100: `[{"kind":"content","key":"10/1","label":"annotates","description":"annotation 10 (t10)"},` +
			`{"kind":"content","key":"9/1","label":"annotates","description":"annotation 9 (t9)"},` +
			`{"kind":"object","key":"dna_sequences/seg1","label":"marks","description":"object dna_sequences/seg1"}]`,
	}
	wantSubgraphs = `[{"nodes":["content:10/1","content:9/1","referent:10","referent:9","object:dna_sequences/seg1"],"edges":4},` +
		`{"nodes":["content:100/1","content:9/1","referent:100","referent:9","object:dna_sequences/seg1"],"edges":4},` +
		`{"nodes":["content:10/1","content:9/1","referent:10","referent:9","object:dna_sequences/seg1"],"edges":4},` +
		`{"nodes":["content:10/1","content:100/1","referent:10","referent:100","object:dna_sequences/seg1"],"edges":4},` +
		`{"nodes":["content:100/1","content:9/1","referent:100","referent:9","object:dna_sequences/seg1"],"edges":4},` +
		`{"nodes":["content:10/1","content:100/1","referent:10","referent:100","object:dna_sequences/seg1"],"edges":4}]`
	wantFacts = []string{
		"9 ov referent:10 overlap ref9~ref10", "9 ov referent:100 overlap ref9~ref100",
		"10 ov referent:100 overlap ref10~ref100", "10 ov referent:9 overlap ref10~ref9",
		"100 ov referent:10 overlap ref100~ref10", "100 ov referent:9 overlap ref100~ref9",
	}
)

// TestWireOrderAcrossDigitBoundary: node keys sort as strings wherever an
// answer orders them — referent "10" before "9", content "10/1" before
// "9/1" — in the correlated view, in a query's subgraphs and in the
// derived facts of an overlap rule, on one store and on three shards. A
// numeric order slipping in for the string one shows.
func TestWireOrderAcrossDigitBoundary(t *testing.T) {
	seed := digitBoundarySeed(t)
	for _, d := range []deployment{overCore, {name: "memory-3", shards: 3}} {
		t.Run(d.name, func(t *testing.T) {
			sh := d.serve(t, seed)
			ts := httptest.NewServer(New(sh, Options{}))
			defer ts.Close()
			for id, want := range wantCorrelated {
				status, body := fetch(t, "GET", fmt.Sprintf("%s/api/annotations/%d/correlated", ts.URL, id), nil)
				if status != http.StatusOK || strings.TrimSpace(string(body)) != want {
					t.Errorf("correlated of %d: %d\n%s\nwant\n%s", id, status, body, want)
				}
			}
			// The planner's order is each store's own; the subgraphs are not.
			var res struct {
				Subgraphs json.RawMessage `json:"subgraphs"`
			}
			status, body := fetch(t, "POST", ts.URL+"/api/query", []byte(digitBoundaryQuery))
			if err := json.Unmarshal(body, &res); status != http.StatusOK || err != nil || string(res.Subgraphs) != wantSubgraphs {
				t.Errorf("query: %d (%v)\n%s\nwant subgraphs\n%s", status, err, body, wantSubgraphs)
			}
			var facts []string
			for _, f := range sh.Views().DerivedAll() {
				facts = append(facts, fmt.Sprintf("%d %s %v %s", f.Source, f.Rule, f.Target, f.Witness))
			}
			if !slices.Equal(facts, wantFacts) {
				t.Errorf("derived facts\n%q\nwant\n%q", facts, wantFacts)
			}
		})
	}
}

// TestUnknownEdgeLabelsLeaveGraphAsIs: ten thousand queries, each naming
// an edge label of its own, answer as they always have — the grammar
// knows three labels and refuses the rest — and a label the grammar knows
// but the graph never carried matches nothing, asked of nodes the graph
// holds. None of it adds to the graph: its label table,
// its nodes and its edges are what they were.
func TestUnknownEdgeLabelsLeaveGraphAsIs(t *testing.T) {
	seed := digitBoundarySeed(t)
	o := ontology.New("go")
	for i := 0; i < 10; i++ {
		if _, err := o.AddTerm(fmt.Sprintf("term%d", i), "unused"); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.RegisterOntology(o); err != nil {
		t.Fatal(err)
	}
	sh := overCore.serve(t, seed)
	ts := httptest.NewServer(New(sh, Options{}))
	defer ts.Close()
	before := *sh.Views()[0].Graph()
	for i := 0; i < 10000; i++ {
		label := fmt.Sprintf("hostile%05d", i)
		status, body := fetch(t, "POST", ts.URL+"/api/query",
			[]byte(`{"query":"select contents where { ?a isa annotation . ?r isa referent . ?a `+label+` ?r . }"}`))
		var res struct{ Error string }
		if err := json.Unmarshal(body, &res); status != http.StatusBadRequest || err != nil ||
			res.Error != `query: syntax error: unknown edge label "`+label+`" at offset 78` {
			t.Fatalf("query with edge label %s: %d %s", label, status, body)
		}
	}
	status, body := fetch(t, "POST", ts.URL+"/api/query?explain=1",
		[]byte(`{"query":"select contents where { ?a isa annotation ; contains \"boundary\" . ?t isa term . ?a refersTo ?t . }"}`))
	// Ten terms against three annotations: the plan binds ?a first and
	// asks each content node's graph for refersTo edges.
	if status != http.StatusOK || !strings.Contains(string(body), `"matches":0,"order":["a","t"]`) {
		t.Fatalf("refersTo over a graph that never carried it: %d %s", status, body)
	}
	after := sh.Views()[0].Graph()
	if after.LabelCount() != before.LabelCount() || after.LabelCount() != 2 ||
		after.NodeCount() != before.NodeCount() || after.EdgeCount() != before.EdgeCount() {
		t.Errorf("graph went from %d labels, %d nodes, %d edges to %d, %d, %d", before.LabelCount(),
			before.NodeCount(), before.EdgeCount(), after.LabelCount(), after.NodeCount(), after.EdgeCount())
	}
}
