package xmldoc

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDocument(t *testing.T) {
	d := NewDocument("annotation")
	if !d.Root.Valid() || d.Root.Name() != "annotation" || d.Root.Kind() != ElementNode {
		t.Fatalf("Root = %+v", d.Root)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
	if d.Root.ID() != 1 || d.Root.Parent().Valid() || d.Root.FirstChild().Valid() {
		t.Fatalf("root ID = %d, parent %v, child %v", d.Root.ID(), d.Root.Parent(), d.Root.FirstChild())
	}
}

func TestBuildTree(t *testing.T) {
	d := NewDocument("annotation")
	meta := d.AddElement(d.Root, "meta")
	d.AddElementText(meta, "creator", "condit")
	body := d.AddElementText(d.Root, "body", "contains protease domain")
	body.SetAttr("lang", "en")
	body.SetAttr("lang", "en-US") // replace

	if n := countChildren(d.Root); n != 2 {
		t.Fatalf("root has %d children", n)
	}
	if v, ok := body.Attr("lang"); !ok || v != "en-US" {
		t.Fatalf("attr lang = (%q,%v)", v, ok)
	}
	if _, ok := body.Attr("missing"); ok {
		t.Fatal("missing attribute reported present")
	}
	if got := d.Root.Text(); got != "conditcontains protease domain" {
		t.Fatalf("Text() = %q", got)
	}
	if !meta.FirstChildElement("creator").Valid() {
		t.Fatal("FirstChildElement missed creator")
	}
	if meta.FirstChildElement("nope").Valid() {
		t.Fatal("FirstChildElement invented a node")
	}
}

func countChildren(n Node) int {
	count := 0
	for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
		count++
	}
	return count
}

// TestBuildOrder pins the one rule of the append-only slab: a node goes
// under an element whose subtree still reaches the end of the document,
// and a handle is only good for its own document.
func TestBuildOrder(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	d := NewDocument("a")
	b := d.AddElement(d.Root, "b")
	c := d.AddElement(b, "c")
	d.AddText(c, "deep")
	e := d.AddElement(b, "e") // closes c
	mustPanic("adding under a closed element", func() { d.AddElement(c, "late") })
	mustPanic("adding under a text node", func() { d.AddElement(c.FirstChild(), "x") })
	mustPanic("a foreign parent", func() { NewDocument("other").AddElement(d.Root, "x") })
	mustPanic("SetAttr on a text node", func() { c.FirstChild().SetAttr("k", "v") })
	// Attributes may still be set on any element, in any order.
	c.SetAttr("k", "1")
	e.SetAttr("k", "2")
	c.SetAttr("l", "3")
	d.AddElement(d.Root, "f") // closes b and e
	const want = "<a>\n  <b>\n    <c k=\"1\" l=\"3\">deep</c>\n    <e k=\"2\"/>\n  </b>\n  <f/>\n</a>\n"
	if got := d.String(); got != want {
		t.Fatalf("String() =\n%s\nwant\n%s", got, want)
	}
	if kws := strings.Join(tokens(d), ","); kws != "1,2,3,deep" {
		t.Fatalf("tokens = %s", kws)
	}
	// A subtree's values are one run in document order, attributes set late
	// included, before and after sealing.
	for _, sealed := range []bool{false, true} {
		if sealed {
			d.Seal()
		}
		for _, tc := range []struct {
			n    Node
			want string
		}{
			{d.Root, "1,3,deep,2"}, {b, "1,3,deep,2"}, {c, "1,3,deep"}, {c.FirstChild(), "deep"},
			{c.AttrNode(1), "3"}, {e, "2"}, {d.Root.FirstChildElement("f"), ""},
		} {
			if got := strings.Join(slices.Collect(tc.n.Slots().All), ","); got != tc.want {
				t.Errorf("sealed=%v: %s Slots() = %q, want %q", sealed, tc.n.Path(), got, tc.want)
			}
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	const src = `<annotation id="a42">
  <dc>
    <creator>gupta</creator>
    <subject>influenza NS1</subject>
  </dc>
  <body>The <b>protease</b> site overlaps segment 3.</body>
  <!--reviewed-->
</annotation>`
	d, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.Root.Name() != "annotation" {
		t.Fatalf("root = %q", d.Root.Name())
	}
	if v, _ := d.Root.Attr("id"); v != "a42" {
		t.Fatalf("id attr = %q", v)
	}
	dc := d.Root.FirstChildElement("dc")
	if !dc.Valid() || len(dc.ChildElements("")) != 2 {
		t.Fatal("dc children wrong")
	}
	body := d.Root.FirstChildElement("body")
	if !body.Valid() || !strings.Contains(body.Text(), "protease") {
		t.Fatalf("body text = %q", body.Text())
	}
	// Round trip: serialise and reparse, then compare structure.
	d2, err := Parse(strings.NewReader(d.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(d, d2) {
		t.Fatalf("round trip changed the document:\n%s\nvs\n%s", d.String(), d2.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"<a><b></a></b>",
		"<a></a><b></b>",
		"<unclosed>",
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseSkipsInterElementWhitespace(t *testing.T) {
	d, err := Parse(strings.NewReader("<a>\n  <b>x</b>\n</a>"))
	if err != nil {
		t.Fatal(err)
	}
	if n := countChildren(d.Root); n != 1 {
		t.Fatalf("root children = %d, want 1 (whitespace dropped)", n)
	}
}

func TestEscaping(t *testing.T) {
	d := NewDocument("a")
	d.AddElementText(d.Root, "t", `<x> & "y" 'z'`)
	el := d.Root.FirstChildElement("t")
	el.SetAttr("v", `a<b&"c"`)
	out := d.String()
	if strings.Contains(out, `<x>`) || !strings.Contains(out, "&lt;x&gt;") {
		t.Fatalf("text not escaped: %s", out)
	}
	d2, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Root.FirstChildElement("t").Text(); got != `<x> & "y" 'z'` {
		t.Fatalf("unescaped text = %q", got)
	}
	if got, _ := d2.Root.FirstChildElement("t").Attr("v"); got != `a<b&"c"` {
		t.Fatalf("unescaped attr = %q", got)
	}
}

func TestDescendantsOrderAndStop(t *testing.T) {
	d, err := Parse(strings.NewReader(`<r><a><b>1</b></a><c/><d>2</d></r>`))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	d.Root.Descendants(func(n Node) bool {
		if n.Kind() == ElementNode {
			names = append(names, n.Name())
		}
		return true
	})
	want := []string{"a", "b", "c", "d"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Descendants order = %v, want %v", names, want)
	}
	count := 0
	d.Root.Descendants(func(Node) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d, want 2", count)
	}
}

func TestPath(t *testing.T) {
	d, err := Parse(strings.NewReader(`<r><s>one</s><s>two</s><u><v/></u></r>`))
	if err != nil {
		t.Fatal(err)
	}
	ss := d.Root.ChildElements("s")
	if got := ss[0].Path(); got != "/r/s[1]" {
		t.Fatalf("Path = %q", got)
	}
	if got := ss[1].Path(); got != "/r/s[2]" {
		t.Fatalf("Path = %q", got)
	}
	v := d.Root.FirstChildElement("u").FirstChildElement("v")
	if got := v.Path(); got != "/r/u/v" {
		t.Fatalf("Path = %q", got)
	}
	// An attribute handle reads as a text node, but its step is the
	// attribute's.
	d, err = Parse(strings.NewReader(`<a><r lo="1" hi="2"/><r lo="3"/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	rs := d.Root.ChildElements("r")
	for _, c := range []struct {
		n    Node
		want string
	}{{rs[0].AttrNode(0), "/a/r[1]/@lo"}, {rs[0].AttrNode(1), "/a/r[1]/@hi"}, {rs[1].AttrNode(0), "/a/r[2]/@lo"}, {d.Root.FirstChild(), "/a/r[1]"}} {
		if got := c.n.Path(); got != c.want {
			t.Errorf("Path = %q, want %q", got, c.want)
		}
	}
	d, err = Parse(strings.NewReader(`<a><r lo="1"/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Root.FirstChild().AttrNode(0).Path(); got != "/a/r/@lo" {
		t.Errorf("Path = %q, want /a/r/@lo", got)
	}
}

func TestEqual(t *testing.T) {
	a, _ := Parse(strings.NewReader(`<r x="1" y="2"><a>t</a></r>`))
	b, _ := Parse(strings.NewReader(`<r y="2" x="1"><a>t</a></r>`)) // attr order ignored
	c, _ := Parse(strings.NewReader(`<r x="1" y="2"><a>T</a></r>`))
	if !Equal(a, b) {
		t.Fatal("attribute order should not affect equality")
	}
	if Equal(a, c) {
		t.Fatal("different text reported equal")
	}
}

// checkHasToken holds HasToken to membership in AppendTokens on every
// value of d: its tokens, the same words in other cases, padded and cut
// short, its fields before they are lower-cased, and a few that are never
// tokens.
func checkHasToken(t testing.TB, d *Document) {
	t.Helper()
	for v := range d.Root.Slots().All {
		toks := AppendTokens(nil, v)
		probes := append([]string{"", " ", "-", "\u212a", "K", "k", "protease", "tp53", "a b"}, strings.Fields(v)...)
		for _, w := range toks {
			probes = append(probes, w, strings.ToUpper(w), " "+w, w+" ", w[:len(w)-1], w+"x")
		}
		for _, p := range probes {
			if got, want := HasToken(v, p), slices.Contains(toks, p); got != want {
				t.Fatalf("HasToken(%q, %q) = %v, AppendTokens %q", v, p, got, toks)
			}
		}
	}
}

// TestHasToken: HasToken answers as membership in AppendTokens does, and
// no answer allocates.
func TestHasToken(t *testing.T) {
	for _, src := range []string{
		`<a term="protein.TP53"><b>Protease in NS1; protease!</b></a>`,
		`<annotation id="7"><body>Kinase--activity  suspected_here</body><!-- hidden --><x k="K"/></annotation>`,
		`<a>K Ünïcode mixed WORDS, words.</a>`,
		`<a/>`,
	} {
		d, err := Parse(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		checkHasToken(t, d)
	}
	if allocs := testing.AllocsPerRun(100, func() { HasToken("a Shown word", "shown") }); allocs != 0 {
		t.Fatalf("HasToken allocates %.0f objects", allocs)
	}
}

// TestKeywords: the tokens of a document's attribute and text values are
// lower-cased, split at punctuation but not inside protein.TP53, and
// counted once however often they occur; comment text yields none.
func TestKeywords(t *testing.T) {
	d, err := Parse(strings.NewReader(`<a term="protein.TP53"><b>Protease in NS1; protease!</b><!-- hidden --></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(tokens(d), ","), "in,ns1,protease,protein.tp53"; got != want {
		t.Fatalf("tokens = %s, want %s", got, want)
	}
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"Deep Cerebellar nuclei", "deep,cerebellar,nuclei"},
		{"protein.TP53", "protein.tp53"},
		{"a-synuclein (SNCA)", "a-synuclein,snca"},
		{"", ""},
		{"...", "..."},
		{"x;y,z", "x,y,z"},
	}
	for _, tc := range tests {
		got := strings.Join(AppendTokens(nil, tc.in), ",")
		if got != tc.want {
			t.Errorf("AppendTokens(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestQuickSerialiseParse round-trips randomly generated trees.
func TestQuickSerialiseParse(t *testing.T) {
	type spec struct {
		Names  []uint8
		Texts  []string
		Attrs  []uint8
		Fanout uint8
	}
	names := []string{"alpha", "beta", "gamma", "delta", "note", "ref"}
	check := func(s spec) bool {
		d := NewDocument("root")
		cur := d.Root
		for i, b := range s.Names {
			el := d.AddElement(cur, names[int(b)%len(names)])
			if i < len(s.Texts) && s.Texts[i] != "" {
				d.AddText(el, sanitize(s.Texts[i]))
			}
			if i < len(s.Attrs) {
				el.SetAttr("k", sanitize(string(rune('a'+s.Attrs[i]%26))))
			}
			if s.Fanout%2 == 0 {
				cur = el // go deeper
			}
		}
		d2, err := Parse(strings.NewReader(d.String()))
		if err != nil {
			return false
		}
		return Equal(d, d2)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sanitize keeps quick-generated strings printable and trim-safe so that
// the whitespace-dropping parser rule doesn't change equality.
func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r > 0x20 && r < 0x7f {
			sb.WriteRune(r)
		}
	}
	if sb.Len() == 0 {
		return "x"
	}
	return sb.String()
}
