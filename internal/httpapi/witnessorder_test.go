package httpapi

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"graphitti/internal/agraph"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/ontology"
	"graphitti/internal/prop"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// witnessSeed returns a store whose derived facts tie on rule and target
// and differ in witnesses that cross a digit boundary. Annotation i of
// 1–110 holds referent i; those of witnessMarks mark segment1 with
// intervals that all overlap, the rest one of segments 2 and 3. Then four
// annotations (111–114) mark two of segment1's again: each owns two
// referents on both sides of a boundary, ref1/ref10, ref9/ref10 (twice)
// and ref99/ref100, and so reaches one target through both — the
// witnesses "overlap ref10~…" sort before "overlap ref1~…" and
// "overlap ref9~…", as strings. 113 and 114 share both of their
// referents ("shared ref10" before "shared ref9"), and 111 references
// terms t9 and t10 of one ontology under one ancestor
// ("closure go/t10 -> root" before "closure go/t9 -> root"). Every
// segment1 referent is the target of several sources.
func witnessSeed(t *testing.T) *core.Store {
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
	o := ontology.New("go")
	for _, id := range []string{"root", "t9", "t10"} {
		if _, err := o.AddTerm(id, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"t9", "t10"} {
		if err := o.AddEdge(id, "root", ontology.IsA, ontology.Some); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RegisterOntology(o); err != nil {
		t.Fatal(err)
	}
	mark := func(i int64) *core.Referent {
		domain, iv := fmt.Sprintf("segment%d", 2+i%2), span(2*i, 2*i+1)
		if slices.Contains(witnessMarks, i) {
			domain, iv = "segment1", span(i, 240)
		}
		m, err := s.MarkDomainInterval(domain, iv)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	commit := func(id int64, refs []int64, terms ...string) {
		b := s.NewAnnotation().Creator("c").Date("2008-01-01").Title(fmt.Sprintf("t%d", id)).Body("witness")
		for _, r := range refs {
			b.Refer(mark(r))
		}
		for _, term := range terms {
			b.OntologyRef("go", term)
		}
		ann, err := s.Commit(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Collect(ann.ReferentIDs); ann.ID != uint64(id) || len(got) != len(refs) {
			t.Fatalf("annotation %d holds referents %v, want %d and %v", ann.ID, got, id, refs)
		}
	}
	for i := int64(1); i <= 110; i++ {
		commit(i, []int64{i})
	}
	commit(111, []int64{1, 10}, "t9", "t10")
	commit(112, []int64{9, 10})
	commit(113, []int64{99, 100})
	commit(114, []int64{99, 100})
	rules := []prop.Rule{
		{ID: "cl", Edge: prop.EdgeOntologyClosure, Ontology: "go"},
		{ID: "ov", Edge: prop.EdgeOverlap, Domain: "segment1"},
		{ID: "sh", Edge: prop.EdgeSharedReferent},
	}
	for _, r := range rules {
		if err := prop.Attach(s).AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// witnessMarks are the referents (and annotations) of witnessSeed on
// segment1.
var witnessMarks = []int64{1, 9, 10, 50, 99, 100}

// witnessIDs are the annotations witnessSeed derives facts from or onto.
var witnessIDs = append(slices.Clone(witnessMarks), 111, 112, 113, 114)

// TestWitnessOrderAcrossDigitBoundary: facts that tie on rule and target
// come out ordered by their witnesses as strings, and same-target facts
// of several sources by source, as they did while every stored fact
// carried its witness printed — from DerivedEach, DerivedFrom, DerivedOnto,
// HasDerivedTarget and GET /api/provenance/{id}, on one store and on three
// shards. The listing and the answers are pinned byte for byte in
// testdata/witness-order.golden, written from that layout.
func TestWitnessOrderAcrossDigitBoundary(t *testing.T) {
	seed := witnessSeed(t)
	var golden bytes.Buffer
	for _, f := range slices.Collect(seed.View().DerivedEach) {
		fmt.Fprintf(&golden, "%d %s %v %s\n", f.Source, f.Rule, f.Target, f.Witness)
	}
	ts := httptest.NewServer(New(overCore.serve(t, seed), Options{}))
	for _, id := range witnessIDs {
		status, body := fetch(t, "GET", fmt.Sprintf("%s/api/provenance/%d", ts.URL, id), nil)
		if status != http.StatusOK {
			t.Fatalf("provenance of %d: %d %s", id, status, body)
		}
		fmt.Fprintf(&golden, "GET /api/provenance/%d\n%s", id, body)
	}
	ts.Close()
	path := filepath.Join("testdata", "witness-order.golden")
	if *update {
		if err := os.WriteFile(path, golden.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden.Bytes(), want) {
		t.Errorf("derived facts and provenance answers differ from %s:\n%s", path, golden.Bytes())
	}

	for _, d := range []deployment{overCore, {name: "memory-3", shards: 3}} {
		t.Run(d.name, func(t *testing.T) {
			sh := d.serve(t, seed)
			var all []core.DerivedFact
			for _, v := range sh.Views() {
				all = slices.AppendSeq(all, v.DerivedEach)
			}
			sort.SliceStable(all, func(i, j int) bool { return all[i].Source < all[j].Source })
			var listing bytes.Buffer
			for _, f := range all {
				fmt.Fprintf(&listing, "%d %s %v %s\n", f.Source, f.Rule, f.Target, f.Witness)
			}
			if pinned, _, _ := bytes.Cut(want, []byte("GET ")); !bytes.Equal(listing.Bytes(), pinned) {
				t.Errorf("DerivedEach lists\n%s", listing.Bytes())
			}
			vs := sh.Views()
			for _, id := range witnessIDs {
				src := uint64(id)
				if got, want := vs.DerivedFrom(src), filterFacts(all, func(f core.DerivedFact) bool { return f.Source == src }); !slices.Equal(got, want) {
					t.Errorf("DerivedFrom(%d) = %v, want %v", id, got, want)
				}
				ann, err := seed.View().Annotation(src)
				if err != nil {
					t.Fatal(err)
				}
				targets := []agraph.NodeRef{agraph.ContentRoot(src)}
				for ref := range ann.ReferentIDs {
					targets = append(targets, agraph.Referent(ref))
				}
				got, err := vs.DerivedOnto(src)
				if err != nil {
					t.Fatal(err)
				}
				if want := filterFacts(all, func(f core.DerivedFact) bool { return slices.Contains(targets, f.Target) }); !slices.Equal(got, want) {
					t.Errorf("DerivedOnto(%d) = %v, want %v", id, got, want)
				}
			}
			// A restored set has its own derived epochs: the rest of each
			// answer is the pinned one.
			epoch := regexp.MustCompile(`"epoch":[0-9]+,`)
			ts := httptest.NewServer(New(sh, Options{}))
			defer ts.Close()
			for _, id := range witnessIDs {
				_, body := fetch(t, "GET", fmt.Sprintf("%s/api/provenance/%d", ts.URL, id), nil)
				got := fmt.Sprintf("GET /api/provenance/%d\n%s", id, body)
				if !bytes.Contains(epoch.ReplaceAll(want, nil), epoch.ReplaceAll([]byte(got), nil)) {
					t.Errorf("provenance of %d answers %s", id, body)
				}
			}
			// Every node a fact of the seed targets, and one none does.
			var targets []agraph.NodeRef
			for _, f := range all {
				targets = append(targets, f.Target)
			}
			targets = append(targets, agraph.Referent(2), agraph.Term("go", "t9"))
			for _, target := range targets {
				for _, rule := range []string{"*", "cl", "ov", "sh", "none"} {
					want := slices.ContainsFunc(all, func(f core.DerivedFact) bool {
						return f.Target == target && (rule == "*" || f.Rule == rule)
					})
					got := false
					for _, v := range vs {
						got = got || v.HasDerivedTarget(target, rule)
					}
					if got != want {
						t.Errorf("HasDerivedTarget(%v, %q) = %v, want %v", target, rule, got, want)
					}
				}
			}
		})
	}
}

// filterFacts returns the facts keep keeps, in order.
func filterFacts(facts []core.DerivedFact, keep func(core.DerivedFact) bool) []core.DerivedFact {
	var out []core.DerivedFact
	for _, f := range facts {
		if keep(f) {
			out = append(out, f)
		}
	}
	return out
}
