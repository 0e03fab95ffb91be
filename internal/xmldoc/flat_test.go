package xmldoc

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// A comment can only enter a document through Parse; the golden cases of
// serialize_test.go predate that and attach theirs with the detached-node
// calls the pointer DOM had. These two keep that file as it was.

type detached struct {
	kind Kind
	text string
}

func (d *Document) CreateComment(text string) detached { return detached{CommentNode, text} }

func (d *Document) AppendChild(parent Node, child detached) error {
	d.add(d.own(parent), child.kind, child.text)
	return nil
}

// SameAsTree fails the test unless flat and tree are the same document to
// every reader this repository has: the serializer, the keyword
// tokenizer, and node by node — ID, kind, name, value, attributes, path,
// text, parent, children, descendants.
func SameAsTree(t testing.TB, flat *Document, tree *TreeDocument) {
	t.Helper()
	if got, want := flat.String(), tree.String(); got != want {
		t.Fatalf("String():\n%q\ntree:\n%q", got, want)
	}
	if got, want := string(flat.AppendTo([]byte("x"))), "x"+tree.String(); got != want {
		t.Fatalf("AppendTo:\n%q\ntree:\n%q", got, want)
	}
	if got, want := tokens(flat), tree.tokens(); !slices.Equal(got, want) {
		t.Fatalf("tokens = %q, tree %q", got, want)
	}
	checkHasToken(t, flat)
	if flat.Len() != tree.Len() {
		t.Fatalf("Len() = %d, tree %d", flat.Len(), tree.Len())
	}
	if flat.Root.ID() != tree.Root.ID {
		t.Fatalf("root ID = %d, tree %d", flat.Root.ID(), tree.Root.ID)
	}
	ids := func(ns []*TreeNode) []uint64 {
		out := []uint64{}
		for _, n := range ns {
			out = append(out, n.ID)
		}
		return out
	}
	flatIDs := func(ns []Node) []uint64 {
		out := []uint64{}
		for _, n := range ns {
			out = append(out, n.ID())
		}
		return out
	}
	// The tree's IDs follow creation order, the slab's follow document
	// order; the two agree because everything here is built front to back.
	for i, tn := range tree.nodes {
		fn := Node{d: flat, i: int32(i)}
		at := fmt.Sprintf("node %d (%s)", tn.ID, tn.Path())
		if fn.ID() != tn.ID || fn.Kind() != tn.Kind || fn.Name() != tn.Name || fn.Value() != tn.Value {
			t.Fatalf("%s: flat is %d %v %q %q, tree %v %q %q", at, fn.ID(), fn.Kind(), fn.Name(), fn.Value(), tn.Kind, tn.Name, tn.Value)
		}
		if !slices.Equal(fn.Attrs(), tn.Attrs) {
			t.Fatalf("%s: Attrs() = %v, tree %v", at, fn.Attrs(), tn.Attrs)
		}
		for k, a := range tn.Attrs {
			an := fn.AttrNode(k)
			if v, ok := fn.Attr(a.Name); !ok || v != firstAttr(tn.Attrs, a.Name) {
				t.Fatalf("%s: Attr(%q) = %q, %v", at, a.Name, v, ok)
			}
			if an.ID() != tn.ID || an.Kind() != TextNode || an.Name() != a.Name || an.Value() != a.Value ||
				an.Text() != a.Value || an.Parent() != fn || an.FirstChild().Valid() || an.NextSibling().Valid() {
				t.Fatalf("%s: attribute handle %d reads %d %v %q %q", at, k, an.ID(), an.Kind(), an.Name(), an.Value())
			}
		}
		if _, ok := fn.Attr("\x00absent"); ok {
			t.Fatalf("%s: absent attribute reported present", at)
		}
		if got, want := fn.Path(), tn.Path(); got != want {
			t.Fatalf("%s: Path() = %q", at, got)
		}
		if got, want := fn.Text(), tn.Text(); got != want {
			t.Fatalf("%s: Text() = %q, tree %q", at, got, want)
		}
		switch p := fn.Parent(); {
		case tn.Parent == nil && p.Valid():
			t.Fatalf("%s: root has parent %d", at, p.ID())
		case tn.Parent != nil && (!p.Valid() || p.ID() != tn.Parent.ID):
			t.Fatalf("%s: Parent() = %v, tree %d", at, p, tn.Parent.ID)
		}
		var kids []Node
		for c := fn.FirstChild(); c.Valid(); c = c.NextSibling() {
			kids = append(kids, c)
		}
		if got, want := flatIDs(kids), ids(tn.Children); !slices.Equal(got, want) {
			t.Fatalf("%s: children %v, tree %v", at, got, want)
		}
		names := []string{""}
		for _, c := range tn.Children {
			names = append(names, c.Name)
		}
		for _, name := range names {
			if got, want := flatIDs(fn.ChildElements(name)), ids(tn.ChildElements(name)); !slices.Equal(got, want) {
				t.Fatalf("%s: ChildElements(%q) = %v, tree %v", at, name, got, want)
			}
			first, want := fn.FirstChildElement(name), tn.FirstChildElement(name)
			if first.Valid() != (want != nil) || want != nil && first.ID() != want.ID {
				t.Fatalf("%s: FirstChildElement(%q) = %v, tree %v", at, name, first, want)
			}
		}
		var desc, treeDesc []uint64
		fn.Descendants(func(n Node) bool { desc = append(desc, n.ID()); return true })
		tn.Descendants(func(n *TreeNode) bool { treeDesc = append(treeDesc, n.ID); return true })
		if !slices.Equal(desc, treeDesc) {
			t.Fatalf("%s: Descendants %v, tree %v", at, desc, treeDesc)
		}
		if i > 0 && fn.Compare(Node{d: flat, i: int32(i - 1)}) <= 0 {
			t.Fatalf("%s: does not sort after its predecessor", at)
		}
	}
}

func firstAttr(attrs []Attr, name string) string {
	for _, a := range attrs {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}

// parseCorpus is XML both parsers must read alike: the same error, or the
// same document.
var parseCorpus = []string{
	`<a/>`,
	`<a></a>`,
	`<a>text</a>`,
	`<a k="v" l="w"/>`,
	`<annotation id="a42"><dc><creator>gupta</creator><subject>influenza NS1</subject></dc>` +
		`<body>The <b>protease</b> site overlaps segment 3.</body><!--reviewed--></annotation>`,
	"<a>\n  <b>x</b>\n  <b>y</b>\n  <c><b/></c>\n</a>",
	`<p>see <b>this</b><!-- note --><br k="v"/> &amp; that</p>`,
	`<a><!--top--><b><c><d/><!--deep--></c><e></e></b></a>`,
	`<a xmlns="urn:x" xmlns:y="urn:y" y:k="1" k="2"><y:b/></a>`,
	`<a term="protein.TP53"><b>Protease in NS1; protease!</b></a>`,
	`<a q="&lt;&gt;&amp;&quot;&apos;"><t>x &lt; y &amp;&amp; y &gt; "z" 'w'</t></a>`,
	`<r><s>one</s><s>two</s><u><v/><s>three</s></u>tail</r>`,
	`<r><a k="1"/><b><a k="2"/></b></r>`,
	`<?xml version="1.0"?><!DOCTYPE a><a><![CDATA[<raw>]]></a>`,
	`<!--before--><a/><!--after-->`,
	strings.Repeat("<a>", 300) + "x" + strings.Repeat("</a>", 300),
	``, `   `, `text only`, `<a><b></a></b>`, `<a></a><b></b>`, `<unclosed>`, `<a k="1" k="2"/>`, `</a>`,
}

func TestFlatVsTreeParse(t *testing.T) {
	for _, src := range parseCorpus {
		flat, ferr := Parse(strings.NewReader(src))
		tree, terr := ParseTreeString(src)
		if (ferr == nil) != (terr == nil) || ferr != nil && ferr.Error() != terr.Error() {
			t.Fatalf("%q: flat error %v, tree error %v", src, ferr, terr)
		}
		if ferr == nil {
			SameAsTree(t, flat, tree)
		}
	}
}

// randomText draws strings that exercise the serializer's escapes, the
// tokenizer's word bytes and Parse's whitespace rule.
func randomText(r *rand.Rand) string {
	pieces := []string{"protease", "NS1", "protein.TP53", " ", "  ", "<", ">", "&", `"`, "'", "é", " ",
		"\xff", "\xe2\x82", ";", "a-b_c", "42", "\n", "\t", "x"}
	var sb strings.Builder
	for n := r.Intn(5); n > 0; n-- {
		sb.WriteString(pieces[r.Intn(len(pieces))])
	}
	return sb.String()
}

// TestFlatVsTreeRandom builds random documents front to back through both
// builders — elements, text (empty text too), comments, attributes set and
// replaced on any element still in reach — and then takes whatever
// serializes to well-formed XML through both parsers.
func TestFlatVsTreeRandom(t *testing.T) {
	names := []string{"a", "b", "dc:title", "referent", "n"}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		flat, tree := NewDocument("root"), NewTreeDocument("root")
		// spine holds the open elements, innermost last.
		fspine, tspine := []Node{flat.Root}, []*TreeNode{tree.Root}
		felems, telems := []Node{flat.Root}, []*TreeNode{tree.Root}
		for ops := r.Intn(40); ops > 0; ops-- {
			at := r.Intn(len(fspine))
			switch r.Intn(6) {
			case 0, 1: // an element under some open element, which closes those below
				name := names[r.Intn(len(names))]
				fe, te := flat.AddElement(fspine[at], name), tree.AddElement(tspine[at], name)
				fspine, tspine = append(fspine[:at+1], fe), append(tspine[:at+1], te)
				felems, telems = append(felems, fe), append(telems, te)
			case 2:
				text := randomText(r)
				flat.AddText(fspine[at], text)
				tree.AddText(tspine[at], text)
				fspine, tspine = fspine[:at+1], tspine[:at+1]
			case 3:
				text := strings.ReplaceAll(randomText(r), "-", "") // "--" cannot be parsed back
				_ = flat.AppendChild(fspine[at], flat.CreateComment(text))
				_ = tree.AppendChild(tspine[at], tree.CreateComment(text))
				fspine, tspine = fspine[:at+1], tspine[:at+1]
			case 4:
				name, text := names[r.Intn(len(names))], randomText(r)
				fe, te := flat.AddElementText(fspine[at], name, text), tree.AddElementText(tspine[at], name, text)
				fspine, tspine = fspine[:at+1], tspine[:at+1]
				felems, telems = append(felems, fe), append(telems, te)
			default: // an attribute on any element, open or closed
				e := r.Intn(len(felems))
				name, value := string(rune('k'+r.Intn(3))), randomText(r)
				felems[e].SetAttr(name, value)
				telems[e].SetAttr(name, value)
			}
		}
		SameAsTree(t, flat, tree)
		flat.Seal() // the interned shape reads as the private one did
		SameAsTree(t, flat, tree)

		src := tree.String()
		flat2, ferr := Parse(strings.NewReader(src))
		tree2, terr := ParseTreeString(src)
		if (ferr == nil) != (terr == nil) {
			t.Fatalf("seed %d: %q: flat error %v, tree error %v", seed, src, ferr, terr)
		}
		if ferr != nil {
			continue // a control byte the decoder refuses
		}
		SameAsTree(t, flat2, tree2)
		if Equal(flat, flat2) != TreeEqual(tree, tree2) {
			t.Fatalf("seed %d: Equal = %v, tree %v", seed, Equal(flat, flat2), TreeEqual(tree, tree2))
		}
		if !Equal(flat2, flat2) {
			t.Fatalf("seed %d: document not Equal to itself", seed)
		}
	}
}

// TestNodeSize pins the sizes: the header and the value block are paid
// once per annotation a server holds, a shape's node entry once per node of each
// distinct shape.
func TestNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size != 16 {
		t.Errorf("a node entry is %d bytes, want 16", size)
	}
	if size := unsafe.Sizeof(Node{}); size != 16 {
		t.Errorf("a handle is %d bytes, want 16", size)
	}
	if size := unsafe.Sizeof(Document{}); size != 40 {
		t.Errorf("a document header is %d bytes, want 40", size)
	}
	build := func() {
		d := NewDocument("annotation")
		d.Root.SetAttr("id", "7")
		b := d.AddElementText(d.Root, "body", "text")
		b.SetAttr("k", "v")
		d.AddElement(d.Root, "refs")
		d.Seal()
	}
	build()
	if allocs := testing.AllocsPerRun(100, build); allocs > 2 && !raceEnabled {
		t.Errorf("a document of an interned shape took %.0f allocations, want 2 (header, value block)", allocs)
	}
}
