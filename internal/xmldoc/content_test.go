package xmldoc_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/dublincore"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
	"graphitti/internal/xmldoc"
)

// treeContentDoc is core.buildContentDoc as it was when the content
// document was a pointer DOM — NewDocument, SetAttr with fmt.Sprintf'd
// numbers, dublincore's AppendXML inlined — writing into the retired DOM.
// It is the oracle for every document the commit path can emit. Its Dublin
// Core values are the builder's record, read apart from the document under
// test, each element's values in the order they were given.
func treeContentDoc(annID uint64, dc *dublincore.Record, body string,
	tags [][2]string, refs []*core.Referent, terms []core.TermRef) *xmldoc.TreeDocument {
	doc := xmldoc.NewTreeDocument("annotation")
	doc.Root.SetAttr("id", fmt.Sprintf("%d", annID))
	meta := doc.AddElement(doc.Root, "meta")
	for _, e := range dc.Elements() {
		for _, v := range dc.Get(e) {
			doc.AddElementText(meta, "dc:"+string(e), v)
		}
	}
	if body != "" {
		doc.AddElementText(doc.Root, "body", body)
	}
	if len(tags) > 0 {
		tagEl := doc.AddElement(doc.Root, "tags")
		for _, t := range tags {
			doc.AddElementText(tagEl, t[0], t[1])
		}
	}
	joinKeys := func(keys []string) string {
		sorted := append([]string(nil), keys...)
		sort.Strings(sorted)
		out := ""
		for i, k := range sorted {
			if i > 0 {
				out += ","
			}
			out += k
		}
		return out
	}
	if len(refs) > 0 {
		refsEl := doc.AddElement(doc.Root, "referents")
		for _, r := range refs {
			el := doc.AddElement(refsEl, "referent")
			el.SetAttr("id", fmt.Sprintf("%d", r.ID))
			el.SetAttr("kind", r.Kind.String())
			el.SetAttr("type", string(r.ObjectType))
			el.SetAttr("object", r.ObjectID)
			el.SetAttr("domain", r.Domain)
			switch r.Kind {
			case core.IntervalReferent:
				el.SetAttr("lo", fmt.Sprintf("%d", r.Interval.Lo))
				el.SetAttr("hi", fmt.Sprintf("%d", r.Interval.Hi))
			case core.RegionReferent:
				el.SetAttr("region", r.Region.String())
			case core.BlockReferent:
				el.SetAttr("lo", fmt.Sprintf("%d", r.Interval.Lo))
				el.SetAttr("hi", fmt.Sprintf("%d", r.Interval.Hi))
				el.SetAttr("rows", joinKeys(r.Keys))
			default:
				el.SetAttr("keys", joinKeys(r.Keys))
			}
		}
	}
	if len(terms) > 0 {
		refsEl := doc.AddElement(doc.Root, "ontologyRefs")
		for _, tr := range terms {
			el := doc.AddElement(refsEl, "ref")
			el.SetAttr("ontology", tr.Ontology)
			el.SetAttr("term", tr.TermID)
		}
	}
	return doc
}

// hostile is text that needs every escape the serializer has, and splits
// into keyword tokens at every separator.
const hostile = `<a b="c" d='e'>&amp; x.y-z_w ]]> ` + "\xffé\t"

// contentStore registers one object of every data type, under IDs that
// need escaping wherever the content document quotes them.
func contentStore(t *testing.T) *core.Store {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	s := core.NewStore()
	o := ontology.New(`go<&">`)
	for _, id := range []string{"enzyme", `pro"tease'`} {
		_, err := o.AddTerm(id, id)
		must(err)
	}
	must(s.RegisterOntology(o))
	d, err := seq.New(`NC<1>&"x"`, seq.DNA, strings.Repeat("ACGT", 100))
	must(err)
	d.Domain, d.Offset = `segment "4" & <5>`, 1000
	must(s.RegisterSequence(d))
	a, err := msa.New("HA&aln", []string{"row<b>", `row"a"`, "row'c'"}, []string{"ACGT-ACGT-", "AC-TTAC-TT", "ACGTTACGTT"})
	must(err)
	must(s.RegisterAlignment(a))
	tr, err := phylo.ParseNewick("H5N1<tree>", "((goose:0.1,duck:0.1)wild:0.05,human:0.2)root;")
	must(err)
	must(s.RegisterTree(tr))
	ig := interact.NewGraph(`NS1"net"`)
	for _, m := range []string{"NS1", "PKR", "TRIM25"} {
		_, err := ig.AddMolecule(m, m, interact.ProteinMol)
		must(err)
	}
	must(ig.AddInteraction("NS1", "PKR", "inhibits", 0.9))
	must(s.RegisterInteractionGraph(ig))
	cs, err := imaging.NewCoordinateSystem("atlas&co", rtree.Rect2D(0, 0, 1000, 1000))
	must(err)
	must(s.RegisterCoordinateSystem(cs))
	im, err := imaging.NewImage("brain<1>", "atlas&co", rtree.Rect2D(0, 0, 500, 500), imaging.Identity(2))
	must(err)
	must(s.RegisterImage(im))
	must(s.CreateRecordTable(relstore.MustSchema("isolates", "acc",
		relstore.Column{Name: "acc", Type: relstore.String}, relstore.Column{Name: "year", Type: relstore.Int64})))
	must(s.InsertRecord("isolates", relstore.Row{relstore.S(`A/goose/"1996"`), relstore.I(1996)}))
	must(s.InsertRecord("isolates", relstore.Row{relstore.S("A/hk/<1997>"), relstore.I(1997)}))
	return s
}

// TestContentDocumentsFlatVsTree commits annotations that between them
// use every branch of the content-document builder — each referent kind,
// several referents at once, a shared referent, tags, Dublin Core elements
// with one value and with several, ontology references, no body, no
// referents, and text that needs escaping in every position — and holds
// each stored document to the one the old builder writes into the old DOM.
func TestContentDocumentsFlatVsTree(t *testing.T) {
	s := contentStore(t)
	mark := func(r *core.Referent, err error) *core.Referent {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	marks := map[string]func() *core.Referent{
		"interval": func() *core.Referent {
			return mark(s.View().MarkSequenceInterval(`NC<1>&"x"`, interval.Interval{Lo: 10, Hi: 50}))
		},
		"domain interval": func() *core.Referent {
			return mark(s.MarkDomainInterval(`segment "4" & <5>`, interval.Interval{Lo: 1100, Hi: 1180}))
		},
		"region": func() *core.Referent {
			return mark(s.View().MarkImageRegion("brain<1>", rtree.Rect2D(10, 20, 110, 220)))
		},
		"clade": func() *core.Referent { return mark(s.View().MarkClade("H5N1<tree>", "goose", "duck")) },
		"subgraph": func() *core.Referent {
			return mark(s.View().MarkSubgraph(`NS1"net"`, "PKR", "NS1"))
		},
		"block": func() *core.Referent {
			return mark(s.View().MarkAlignmentBlock("HA&aln", []string{"row'c'", "row<b>", `row"a"`}, interval.Interval{Lo: 2, Hi: 7}))
		},
		"one-row block": func() *core.Referent {
			return mark(s.View().MarkAlignmentBlock("HA&aln", []string{"row<b>"}, interval.Interval{Lo: 0, Hi: 1}))
		},
		"records": func() *core.Referent {
			return mark(s.View().MarkRecords("isolates", relstore.S("A/hk/<1997>"), relstore.S(`A/goose/"1996"`)))
		},
		"object": func() *core.Referent { return mark(s.View().MarkObject(core.TypeTree, "H5N1<tree>")) },
	}
	type input struct {
		name  string
		body  string
		tags  [][2]string
		marks []string
		terms []core.TermRef
		dc    func(b *core.Builder)
	}
	plainDC := func(b *core.Builder) { b.Creator("gupta").Date("2008-04-07") }
	inputs := []input{
		{name: "benchmark shape", body: "putative protease cleavage region gene0017", marks: []string{"interval"},
			dc: func(b *core.Builder) { b.Creator("gupta").Date("2008-04-07").Title("w0000042") }},
		{name: "no body, terms only", terms: []core.TermRef{{Ontology: `go<&">`, TermID: `pro"tease'`}}, dc: plainDC},
		{name: "everything at once", body: hostile,
			tags:  [][2]string{{"grade", "3"}, {"note", hostile}, {"empty", ""}, {"grade", "again"}},
			marks: []string{"interval", "region", "clade", "subgraph", "block", "records", "object", "domain interval", "one-row block"},
			terms: []core.TermRef{{Ontology: `go<&">`, TermID: "enzyme"}, {Ontology: `go<&">`, TermID: `pro"tease'`}},
			dc: func(b *core.Builder) {
				b.Creator("zed").Creator(hostile).Creator("abe").Date("2008-04-07").Title(hostile).
					DCElement(dublincore.Subject, "s2", "s1", "s1").
					DCElement(dublincore.Rights, "", "<r>").DCElement(dublincore.Language, "en")
			}},
		{name: "shared referents", body: "again", marks: []string{"interval", "clade", "interval"}, dc: plainDC},
	}
	for kind := range marks {
		inputs = append(inputs, input{name: kind + " alone", body: kind, marks: []string{kind}, dc: plainDC})
	}
	for _, in := range inputs {
		b := s.NewAnnotation().Body(in.body)
		in.dc(b)
		for _, tag := range in.tags {
			b.Tag(tag[0], tag[1])
		}
		for _, m := range in.marks {
			b.Refer(marks[m]())
		}
		for _, tr := range in.terms {
			b.OntologyRef(tr.Ontology, tr.TermID)
		}
		ann, err := s.Commit(b)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		var refs []*core.Referent
		for id := range ann.ReferentIDs {
			r, err := s.View().Referent(id)
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, r)
		}
		tree := treeContentDoc(ann.ID, b.DC(), in.body, in.tags, refs, slices.Collect(ann.Terms))
		t.Run(in.name, func(t *testing.T) { xmldoc.SameAsTree(t, ann.Content, tree) })
	}
}
