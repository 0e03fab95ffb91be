package httpapi

import (
	"bytes"
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
	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/ontology"
	"graphitti/internal/prop"
	"graphitti/internal/rtree"
)

// wideSeed returns a store whose derived facts name numbers of one, two
// and three uvarint bytes and targets of all four kinds. Annotation 1
// marks segment1 and references go/leaf; annotation 2 holds 150 filler
// marks on segment2, so annotation 3's segment1 mark is referent 152; 4
// marks a region of img-a, which img-b overlaps, and references go/other
// (part_of root); 82 more filler annotations push the referent IDs past
// 16,384, and the segment1 marks after them overlap the earlier ones. The
// rules are installed between the fillers and the late commits, so both
// the rule-change and the per-commit paths build facts; then "ov" is
// deleted, "aa" (a mixed-case keyword trigger, sorting first) added and
// "ov" added again under its ID, and one more commit and a delete follow.
func wideSeed(t *testing.T) *core.Store {
	t.Helper()
	s := core.NewStore()
	for d := 1; d <= 2; d++ {
		sq, err := seq.New(fmt.Sprintf("seg%d", d), seq.DNA, strings.Repeat("ACGT", 5000))
		if err != nil {
			t.Fatal(err)
		}
		sq.Domain = fmt.Sprintf("segment%d", d)
		if err := s.RegisterSequence(sq); err != nil {
			t.Fatal(err)
		}
	}
	o := ontology.New("go")
	for _, id := range []string{"root", "mid", "leaf", "other"} {
		if _, err := o.AddTerm(id, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][3]string{{"mid", "root", ontology.IsA}, {"leaf", "mid", ontology.IsA}, {"other", "root", ontology.PartOf}} {
		if err := o.AddEdge(e[0], e[1], e[2], ontology.Some); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RegisterOntology(o); err != nil {
		t.Fatal(err)
	}
	cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 10_000, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterCoordinateSystem(cs); err != nil {
		t.Fatal(err)
	}
	for _, im := range []struct {
		id     string
		ox, oy float64
	}{{"img-a", 0, 0}, {"img-b", 500, 500}, {"img-c", 5000, 5000}} {
		reg := imaging.Identity(2)
		reg.Offset = [rtree.MaxDims]float64{im.ox, im.oy}
		img, err := imaging.NewImage(im.id, "atlas", rtree.Rect2D(0, 0, 1000, 1000), reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterImage(img); err != nil {
			t.Fatal(err)
		}
	}
	seg1 := func(lo, hi int64) *core.Referent {
		m, err := s.MarkDomainInterval("segment1", span(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	filler := 0
	commit := func(body string, refs []*core.Referent, terms ...string) *core.Annotation {
		b := s.NewAnnotation().Creator("c").Date("2008-01-01").Body(body)
		for _, r := range refs {
			b.Refer(r)
		}
		for _, term := range terms {
			b.OntologyRef("go", term)
		}
		ann, err := s.Commit(b)
		if err != nil {
			t.Fatal(err)
		}
		return ann
	}
	fill := func(n int) *core.Annotation {
		refs := make([]*core.Referent, n)
		for i := range refs {
			m, err := s.MarkDomainInterval("segment2", span(int64(filler), int64(filler+1)))
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = m
			filler++
		}
		return commit("filler", refs)
	}
	commit("Wide first", []*core.Referent{seg1(10, 5000)}, "leaf")
	fill(150)
	if ann := commit("wide second", []*core.Referent{seg1(100, 200)}); !slices.Contains(slices.Collect(ann.ReferentIDs), 152) {
		t.Fatalf("annotation %d holds referents %v, want 152", ann.ID, slices.Collect(ann.ReferentIDs))
	}
	region, err := s.View().MarkImageRegion("img-a", rtree.Rect2D(600, 600, 900, 900))
	if err != nil {
		t.Fatal(err)
	}
	commit("lesion", []*core.Referent{region}, "other")
	rules := prop.Attach(s)
	for _, r := range []prop.Rule{
		{ID: "cl", Edge: prop.EdgeOntologyClosure, Ontology: "go"},
		{ID: "co", Edge: prop.EdgeCoRegistered},
		{ID: "ov", Edge: prop.EdgeOverlap, Domain: "segment1"},
		{ID: "sh", Edge: prop.EdgeSharedReferent},
	} {
		if err := rules.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	for range 82 {
		fill(200)
	}
	late := seg1(150, 4000)
	if ann := commit("wide late", []*core.Referent{late}, "mid"); slices.Max(slices.Collect(ann.ReferentIDs)) < 16384 {
		t.Fatalf("annotation %d holds referents %v, want one past 16,384", ann.ID, slices.Collect(ann.ReferentIDs))
	}
	commit("WIDE twin", []*core.Referent{late, seg1(4500, 4600)})
	if err := rules.DeleteRule("ov"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []prop.Rule{
		{ID: "aa", Edge: prop.EdgeOverlap, Keyword: "Wide", Kind: "interval"},
		{ID: "ov", Edge: prop.EdgeOverlap, Domain: "segment1"},
	} {
		if err := rules.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	gone := commit("wide gone", []*core.Referent{seg1(4550, 4560)})
	commit("wide kept", []*core.Referent{seg1(4400, 4800), late}, "leaf")
	if err := s.DeleteAnnotation(gone.ID); err != nil {
		t.Fatal(err)
	}
	return s
}

// wideAnswers prints every derived read of views, the shards of one state
// (a single store is one), and the provenance answers of the server at
// url, for the annotations and targets the facts name and a few they do
// not. Facts of several shards are merged by source, as each source's
// facts live in one shard.
func wideAnswers(t *testing.T, views []*core.View, url string) []byte {
	t.Helper()
	var out bytes.Buffer
	line := func(f core.DerivedFact) {
		fmt.Fprintf(&out, "%d %s %v %s\n", f.Source, f.Rule, f.Target, f.Witness)
	}
	bySource := func(facts []core.DerivedFact) []core.DerivedFact {
		sort.SliceStable(facts, func(i, j int) bool { return facts[i].Source < facts[j].Source })
		return facts
	}
	var all []core.DerivedFact
	for _, v := range views {
		all = slices.AppendSeq(all, v.DerivedEach)
	}
	out.WriteString("DerivedEach\n")
	for _, f := range bySource(all) {
		line(f)
	}
	var ids []uint64
	targets := []agraph.NodeRef{agraph.Referent(2), agraph.Referent(16384), agraph.Term("go", "leaf"),
		agraph.Object(string(core.TypeImage), "img-c"), agraph.ContentRoot(1)}
	for _, f := range all {
		ids = append(ids, f.Source)
		targets = append(targets, f.Target)
		if id, _, ok := agraph.ContentID(f.Target); ok {
			ids = append(ids, id)
		}
	}
	for _, v := range views {
		for _, ann := range v.Annotations() {
			if ann.NumReferents() < 150 {
				ids = append(ids, ann.ID)
			}
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	slices.SortFunc(targets, agraph.NodeRef.Compare)
	targets = slices.Compact(targets)
	rules := []string{"*", "aa", "cl", "co", "ov", "sh", "none"}
	owner := func(id uint64) *core.View {
		for _, v := range views {
			if _, err := v.Annotation(id); err == nil {
				return v
			}
		}
		return views[0]
	}
	for _, id := range ids {
		v := owner(id)
		fmt.Fprintf(&out, "DerivedFrom %d\n", id)
		for _, f := range v.DerivedFrom(id) {
			line(f)
		}
		fmt.Fprintf(&out, "HasDerivedFrom %d", id)
		for _, rule := range rules {
			fmt.Fprintf(&out, " %s=%v", rule, v.HasDerivedFrom(id, rule))
		}
		out.WriteString("\n")
		var onto []core.DerivedFact
		for _, v := range views {
			if got, err := v.DerivedOnto(id); err == nil {
				onto = append(onto, got...)
			}
		}
		fmt.Fprintf(&out, "DerivedOnto %d\n", id)
		for _, f := range bySource(onto) {
			line(f)
		}
	}
	for _, target := range targets {
		var on []core.DerivedFact
		for _, v := range views {
			on = slices.AppendSeq(on, func(yield func(core.DerivedFact) bool) { v.DerivedTargetingEach(target, yield) })
		}
		fmt.Fprintf(&out, "DerivedTargetingEach %v\n", target)
		for _, f := range bySource(on) {
			line(f)
		}
		fmt.Fprintf(&out, "HasDerivedTarget %v", target)
		for _, rule := range rules {
			has := false
			for _, v := range views {
				has = has || v.HasDerivedTarget(target, rule)
			}
			fmt.Fprintf(&out, " %s=%v", rule, has)
		}
		out.WriteString("\n")
	}
	for _, id := range ids {
		status, body := fetch(t, "GET", fmt.Sprintf("%s/api/provenance/%d", url, id), nil)
		if status != http.StatusOK {
			t.Fatalf("provenance of %d: %d %s", id, status, body)
		}
		fmt.Fprintf(&out, "GET /api/provenance/%d\n%s", id, body)
	}
	return out.Bytes()
}

// TestDerivedAnswersPastOneByteIDs: every derived read, on facts whose
// referent IDs take one, two and three uvarint bytes, whose targets are
// referents, content roots, terms and objects, and whose rule set lost a
// rule and got it back under the same ID, is pinned byte for byte in
// testdata/wide-facts.golden — DerivedEach, DerivedFrom, HasDerivedFrom,
// DerivedOnto, DerivedTargetingEach, HasDerivedTarget and GET
// /api/provenance/{id}, on one store and on three shards. A restored set
// has derived epochs of its own, so its answers are compared without them.
func TestDerivedAnswersPastOneByteIDs(t *testing.T) {
	seed := wideSeed(t)
	if n := seed.View().Stats().Derived; n < 20 {
		t.Fatalf("the seed derives %d facts", n)
	}
	ts := httptest.NewServer(New(overCore.serve(t, seed), Options{}))
	got := wideAnswers(t, []*core.View{seed.View()}, ts.URL)
	ts.Close()
	path := filepath.Join("testdata", "wide-facts.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("derived answers differ from %s:\n%s", path, got)
	}
	for _, kind := range []agraph.NodeKind{agraph.ContentNode, agraph.ReferentNode, agraph.TermNode, agraph.ObjectNode} {
		if !bytes.Contains(want, []byte(" "+kind.String()+":")) {
			t.Errorf("%s pins no fact onto a %s node", path, kind)
		}
	}

	epoch := regexp.MustCompile(`"epoch":[0-9]+,`)
	sh := deployment{name: "memory-3", shards: 3}.serve(t, seed)
	ts = httptest.NewServer(New(sh, Options{}))
	defer ts.Close()
	if got := wideAnswers(t, sh.Views(), ts.URL); !bytes.Equal(epoch.ReplaceAll(got, nil), epoch.ReplaceAll(want, nil)) {
		t.Errorf("three shards answer\n%s", got)
	}
}
