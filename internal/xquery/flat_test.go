package xquery

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/xmldoc"
)

// diffDocs are the documents of xquery_test.go and coverage_test.go, and a
// few that put context nodes inside one another, where a step's results
// arrive out of document order and have to be merged.
var diffDocs = []string{
	sample,
	`<a><b><c/><c/></b><b><c/></b></a>`,
	`<a><x>1</x><y>2</y><x>3</x></a>`,
	`<r><n>5</n></r>`,
	`<r><v>1</v><v>5</v><v>9</v><w>5</w></r>`,
	`<r><v>x</v></r>`,
	`<root><child/></root>`,
	`<r><n> 42 </n></r>`,
	`<a/>`,
	`<r><a k="1"/><b><a k="2"/></b></r>`,
	`<r><s><i>a</i><i>b</i></s><s><i>c</i></s></r>`,
	`<b id="1" k="v"><b id="2"><c>x</c><b id="3" k="w"><c>y</c><c>z</c></b>t</b><c>w</c><!--n--></b>`,
	`<p>see <b>this</b><!-- note --><br k="v"/> &amp; that<k>v</k><k>v</k></p>`,
	`<annotation id="12"><meta><dc:creator>a</dc:creator><dc:creator>b</dc:creator><dc:date>2008</dc:date></meta>` +
		`<body>x marks the spot</body><tags><grade>3</grade></tags><referents>` +
		`<referent id="4" kind="interval" type="dna_sequences" object="NC_1" domain="segment4" lo="100" hi="140"/>` +
		`<referent id="5" kind="clade" type="phylo_trees" object="T" domain="T" keys="duck,goose"/></referents>` +
		`<ontologyRefs><ref ontology="go" term="protease"/></ontologyRefs></annotation>`,
}

// diffExprs is every expression xquery_test.go and coverage_test.go
// evaluate, and then the corners the rewrite could get wrong: the attribute
// axis and what can follow it, ".." from an attribute and from nested
// contexts, "//" under "//", positional predicates per context node and
// over the whole first step, name(), node-set comparisons.
var diffExprs = []string{
	"/annotation", "/annotation/dc", "/annotation/dc/creator", "/annotation/referent", "/nothing",
	"/annotation/nothing", "//referent", "//creator", "/annotation/*", "//*", "/",
	"dc/creator", "referent", "/annotation/body/text()",
	"/annotation/@id", "//referent/@type", "/annotation/@*",
	"//referent[@type='sequence']", "//referent[@type='image']", "//referent[@type='video']",
	"//referent[1]", "//referent[2]", "//referent[3]", "//referent[position()=2]", "//referent[last()]",
	"//referent[@lo='100' and @hi='240']", "//referent[@type='image' or @type='sequence']",
	"/annotation[dc/creator='gupta']", "/annotation[dc/creator='nobody']",
	"//referent[@lo > 50]", "//referent[@lo >= 0]", "//referent[not(@type='image')]",
	"contains(/annotation/body, 'protease')", "contains(/annotation/body, 'kinase')",
	"//body[contains(., 'protease')]", "starts-with(/annotation/dc/date, '2007')",
	"count(//referent)", "count(//referent) + 1", "count(//referent) >= 2",
	"concat(/annotation/dc/creator, ':', /annotation/dc/subject)",
	"substring-before(/annotation/dc/date, '-')", "substring-after(//ontologyRef/@term, ':')",
	"normalize-space('  a   b ')", "string-length(/annotation/dc/creator)",
	"//creator/..", "//creator/.", "//b//c", "//x",
	"//referent[@type='sequence'][1]", "contains(/a/b, 'x') and //c", "//body/text()", "//a/@href",
	"/r/item[3]", "contains(/r/body, 'z')",
	"-3", "- 3 + 10", "/r/n - 2", "2 - -2",
	"/r/v = 5", "/r/v = 4", "/r/v != 5", "/r/v > 8", "/r/v < 1", "/r/v = /r/w", "/r/v >= /r/w",
	"5 = /r/w", "10 < /r/v", "true() = /r/w",
	"true() = true()", "true() != false()", "not(false())", "1 = true()",
	"name(/root/child)", "name()", "name(/nothing)",
	"number(/r/n)", "string(3.5)", "string(count(/r/n))", "number('abc')",
	"count(/a)", "'str'", "true()",
	"//a/@k", "//b/a/@k", "/r/s[last()]/i[1]", "//i[position() = 2]",

	"//@id", "//@*", "/@id", "//b/@*", "//b//@id", "//*/@*", "@*", "@id", "//b/@*/..", "//@k/..", "//b/@id/../@k",
	"//b/@*/.", "//b/@*[1]", "//b/@*[last()]", "//b/@*[name()='k']", "//b/@*[.='2']", "//b/@*/@*", "//b/@*/text()",
	"//b/@*//c", "//b/@id = //b/@id", "//b/@id > 1", "name(//b/@k)", "string(//b/@k)", "count(//b/@*)",
	"//b/@*[../c]", "//*[@*]", "//*[not(@*)]", "//referent/@*[. > 50]",
	"//c/..", "//c/../..", "//c/../../..", "//text()/..", "//node()/..", "/b/..", "/..", "//..", "//.", ".", "..",
	"./b", ".//c", "//b//b", "//b//c[1]", "//b//c[last()]", "//b/c", "//b/b/c[2]", "//b//node()", "//b/node()",
	"//b//text()", "//node()", "//text()", "/b/b//c/../c", "//b[c]", "//b[c][2]", "//b[2]", "//c[2]", "//*[2]",
	"//*[last()]", "//*[position() < 3]", "//b[.//c = 'z']", "//b[b]/c", "//c[. = //c]", "//c[. != //c]",
	"/*", "/*/*", "/*/*/*", "//*/*", "//*//*", "/node()", "/text()",
	"name(//c)", "name(//text())", "name(..)", "name(.)", "name(//b[3]/..)", "//*[name()='c']", "//*[name(..)='b']",
	"//c = 'y'", "//c != 'y'", "//c = //b", "//c < //c", "//c = true()", "//nothing = //c", "//nothing != //c",
	"string(//b)", "string(.)", "string()", "number()", "string-length()", "normalize-space()",
	"normalize-space(//b[2])", "concat(//c, '-', //c[2], '-', name(//b), '-', count(//c), '-', //nothing)",
	"//k = //k", "//k[1]", "//k[2]/..", "/p/text()", "/p/node()[2]", "string-length(/p)", "//br/@k", "//br/..",
	"//referent[@kind='interval']/@lo + //referent/@hi", "//referent[@keys]", "//ref[@ontology='go']/@term",
	"contains(/annotation/body, \"x\")", "contains(//meta/*[2], 'b')", "//meta/*[2]", "//meta/*[last()]",
	"count(//referent/@*)", "//referents/referent[last()]/@*[last()]", "//grade > 2", "//tags/*",
}

// sameNaN compares floats bit for bit, except that any NaN equals any NaN.
func sameNaN(a, b float64) bool {
	return a == b && math.Signbit(a) == math.Signbit(b) || math.IsNaN(a) && math.IsNaN(b)
}

// sameResult evaluates q on the slab and on the tree built from the same
// bytes and fails unless the two agree: the same error, or the same value,
// node for node in order, and the same conversions of it. sc is reused
// from call to call, as a scan reuses it from document to document.
func sameResult(t testing.TB, sc *Scratch, q *Query, flat *xmldoc.Document, root *treeNode) {
	t.Helper()
	fv, ferr := q.EvalValue(flat)
	tv, terr := treeEval(q, root)
	if (ferr == nil) != (terr == nil) || ferr != nil && ferr.Error() != terr.Error() {
		t.Fatalf("%s: error %v, tree %v", q.Source(), ferr, terr)
	}
	if ferr != nil {
		return
	}
	if fv.Kind != tv.Kind || fv.Str != tv.Str || !sameNaN(fv.Num, tv.Num) || fv.Bool != tv.Bool || len(fv.Nodes) != len(tv.Nodes) {
		t.Fatalf("%s: %s %q %v %v with %d nodes, tree %s %q %v %v with %d nodes", q.Source(),
			kindName(fv.Kind), fv.Str, fv.Num, fv.Bool, len(fv.Nodes),
			kindName(tv.Kind), tv.Str, tv.Num, tv.Bool, len(tv.Nodes))
	}
	for i, fn := range fv.Nodes {
		tn := tv.Nodes[i]
		if fn.ID() != tn.ID || fn.Kind() != tn.Kind || fn.Name() != tn.Name || fn.Value() != tn.Value ||
			nodeString(fn) != treeNodeString(tn) || fn.Parent().Valid() != (tn.Parent != nil) ||
			tn.Parent != nil && fn.Parent().ID() != tn.Parent.ID {
			t.Fatalf("%s: result %d is node %d %v %q %q, tree has node %d %v %q %q", q.Source(), i,
				fn.ID(), fn.Kind(), fn.Name(), fn.Value(), tn.ID, tn.Kind, tn.Name, tn.Value)
		}
	}
	if fv.AsBool() != tv.AsBool() || fv.AsString() != tv.AsString() || !sameNaN(fv.AsNumber(), tv.AsNumber()) {
		t.Fatalf("%s: converts to %v %q %v, tree %v %q %v", q.Source(),
			fv.AsBool(), fv.AsString(), fv.AsNumber(), tv.AsBool(), tv.AsString(), tv.AsNumber())
	}
	if got, err := sc.EvalBool(q, flat); err != nil || got != tv.AsBool() {
		t.Fatalf("%s: EvalBool in reused scratch = %v, %v; tree %v", q.Source(), got, err, tv.AsBool())
	}
}

// sameDocument fails unless the slab and the tree hold the same nodes in
// the same order.
func sameDocument(t testing.TB, flat *xmldoc.Document, nodes []*treeNode) {
	t.Helper()
	if flat.Len() != len(nodes) {
		t.Fatalf("%d nodes, tree %d", flat.Len(), len(nodes))
	}
	all := []xmldoc.Node{flat.Root}
	flat.Root.Descendants(func(n xmldoc.Node) bool { all = append(all, n); return true })
	for i, fn := range all {
		tn := nodes[i]
		if fn.ID() != tn.ID || fn.Kind() != tn.Kind || fn.Name() != tn.Name || fn.Value() != tn.Value ||
			!slices.Equal(fn.Attrs(), tn.Attrs) || fn.Text() != tn.Text() {
			t.Fatalf("node %d is %v %q %q %v, tree %d %v %q %q %v", fn.ID(), fn.Kind(), fn.Name(), fn.Value(), fn.Attrs(),
				tn.ID, tn.Kind, tn.Name, tn.Value, tn.Attrs)
		}
	}
}

func TestFlatVsTreeCorpus(t *testing.T) {
	var sc Scratch
	for _, expr := range diffExprs {
		q := MustCompile(expr)
		for _, src := range diffDocs {
			flat, err := xmldoc.ParseString(src)
			if err != nil {
				t.Fatal(err)
			}
			root, nodes, err := parseTree(strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			sameDocument(t, flat, nodes)
			sameResult(t, &sc, q, flat, root)
		}
	}
}

// TestScratchResultsAreStable checks what the stack discipline promises:
// a fresh evaluation's node list is the caller's to keep, while later
// evaluations through a Scratch reuse that Scratch's memory only.
func TestScratchResultsAreStable(t *testing.T) {
	d := doc(t)
	q := MustCompile("//referent/@*")
	kept, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(kept)
	var sc Scratch
	for _, expr := range []string{"//*", "//*[.//text()]", "//@*/..", "count(//node())"} {
		if _, err := sc.EvalBool(MustCompile(expr), d); err != nil {
			t.Fatal(err)
		}
		if _, err := MustCompile(expr).EvalValue(d); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(kept, want) {
		t.Fatal("a returned node list changed under later evaluations")
	}
}

// TestScanAllocations pins what the scan loop costs per document once the
// scratch is warm: nothing for the collection search the benchmark issues.
func TestScanAllocations(t *testing.T) {
	d, err := xmldoc.ParseString(diffDocs[len(diffDocs)-1])
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	for _, expr := range []string{
		`contains(/annotation/body, "x")`,
		`//referent[@kind='interval'][@lo > 50]`,
		`count(//referent/@*) > 3 and //meta/* = 'b'`,
	} {
		q := MustCompile(expr)
		allocs := testing.AllocsPerRun(100, func() {
			if ok, err := sc.EvalBool(q, d); err != nil || !ok {
				t.Fatalf("%s = %v, %v", expr, ok, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per document with a warm scratch, want 0", expr, allocs)
		}
	}
}

// FuzzFlatVsTree parses arbitrary bytes into the slab and into the retired
// pointer DOM, and evaluates an arbitrary expression on both.
func FuzzFlatVsTree(f *testing.F) {
	for i, src := range diffDocs {
		for j := i; j < len(diffExprs); j += len(diffDocs) {
			f.Add([]byte(src), diffExprs[j])
		}
	}
	f.Add([]byte("<a><b></a></b>"), "/a")
	f.Add([]byte("<a k=\"\xff\">\x00</a>"), "//@k")
	f.Fuzz(func(t *testing.T, xmlBytes []byte, expr string) {
		if len(xmlBytes) > 1<<12 || len(expr) > 1<<8 {
			t.Skip() // node-set comparisons are cubic in the document
		}
		flat, ferr := xmldoc.Parse(bytes.NewReader(xmlBytes))
		root, nodes, terr := parseTree(bytes.NewReader(xmlBytes))
		if (ferr == nil) != (terr == nil) || ferr != nil && ferr.Error() != terr.Error() {
			t.Fatalf("parse error %v, tree %v", ferr, terr)
		}
		if ferr != nil {
			return
		}
		sameDocument(t, flat, nodes)
		q, err := Compile(expr)
		if err != nil {
			return
		}
		var sc Scratch
		sameResult(t, &sc, q, flat, root)
	})
}
