package xmldoc

import (
	"bytes"
	"strings"
	"testing"
)

// serializeCases are documents whose String() output was recorded from
// the strings.Builder/WriteRune serializer this package used to have; the
// byte-append serializer that replaced it must reproduce them exactly.
var serializeCases = []struct {
	name  string
	build func() *Document
	want  string
}{
	{"empty root", func() *Document { return NewDocument("a") }, "<a/>\n"},
	{"annotation shape", func() *Document {
		d := NewDocument("annotation")
		d.Root.SetAttr("id", "7")
		meta := d.AddElement(d.Root, "meta")
		d.AddElementText(meta, "dc:creator", "gupta")
		d.AddElementText(meta, "dc:date", "2008-04-07")
		d.AddElementText(d.Root, "body", "protease cleavage site")
		refs := d.AddElement(d.Root, "referents")
		r := d.AddElement(refs, "referent")
		r.SetAttr("id", "3")
		r.SetAttr("kind", "interval")
		r.SetAttr("lo", "100")
		return d
	}, "<annotation id=\"7\">\n  <meta>\n    <dc:creator>gupta</dc:creator>\n    <dc:date>2008-04-07</dc:date>\n  </meta>\n  <body>protease cleavage site</body>\n  <referents>\n    <referent id=\"3\" kind=\"interval\" lo=\"100\"/>\n  </referents>\n</annotation>\n"},
	{"escapes in text and attributes", func() *Document {
		d := NewDocument("a")
		d.Root.SetAttr("q", `<>&"'`)
		d.AddElementText(d.Root, "t", `x < y && y > "z" 'w'`)
		return d
	}, "<a q=\"&lt;&gt;&amp;&quot;&apos;\">\n  <t>x &lt; y &amp;&amp; y &gt; &quot;z&quot; &apos;w&apos;</t>\n</a>\n"},
	{"control bytes and line separators pass through", func() *Document {
		d := NewDocument("a")
		d.Root.SetAttr("c", "\x00\x01\t\n\r\x7f")
		d.AddElementText(d.Root, "t", "a\u2028b\u2029c\u00e9\U0001F600")
		return d
	}, "<a c=\"\x00\x01\t\n\r\x7f\">\n  <t>a\u2028b\u2029c\u00e9\U0001F600</t>\n</a>\n"},
	{"invalid UTF-8 becomes U+FFFD", func() *Document {
		d := NewDocument("a")
		d.Root.SetAttr("v", "\xff<\xc3")
		d.AddElementText(d.Root, "t", "ok\xe2\x82&\xf0\x9f\x98")
		return d
	}, "<a v=\"\ufffd&lt;\ufffd\">\n  <t>ok\ufffd\ufffd&amp;\ufffd\ufffd\ufffd</t>\n</a>\n"},
	{"mixed content is inline", func() *Document {
		d := NewDocument("p")
		d.AddText(d.Root, "see ")
		b := d.AddElement(d.Root, "b")
		d.AddText(b, "this")
		_ = d.AppendChild(d.Root, d.CreateComment(" note "))
		d.AddElement(d.Root, "br").SetAttr("k", "v")
		d.AddText(d.Root, " & that")
		return d
	}, "<p>see <b>this</b><!-- note --><br k=\"v\"/> &amp; that</p>\n"},
	{"comments and nesting", func() *Document {
		d := NewDocument("a")
		_ = d.AppendChild(d.Root, d.CreateComment("top -- <raw> & kept"))
		b := d.AddElement(d.Root, "b")
		c := d.AddElement(b, "c")
		d.AddElement(c, "d")
		_ = d.AppendChild(c, d.CreateComment("deep"))
		d.AddElementText(b, "e", "")
		return d
	}, "<a>\n  <!--top -- <raw> & kept-->\n  <b>\n    <c>\n      <d/>\n      <!--deep-->\n    </c>\n    <e></e>\n  </b>\n</a>\n"},
}

func TestSerializeGolden(t *testing.T) {
	for _, tc := range serializeCases {
		d := tc.build()
		got := d.String()
		if got != tc.want {
			t.Errorf("%s: String() =\n%q\nwant\n%q", tc.name, got, tc.want)
		}
		var buf bytes.Buffer
		n, err := d.WriteTo(&buf)
		if err != nil || n != int64(len(tc.want)) || buf.String() != tc.want {
			t.Errorf("%s: WriteTo = %d, %v, %q", tc.name, n, err, buf.String())
		}
		if app := d.AppendTo([]byte("prefix:")); string(app) != "prefix:"+tc.want {
			t.Errorf("%s: AppendTo = %q", tc.name, app)
		}
	}
}

// TestSerializeDeepIndent covers indentation beyond any precomputed run
// of spaces.
func TestSerializeDeepIndent(t *testing.T) {
	d := NewDocument("n")
	n := d.Root
	const depth = 70
	for i := 0; i < depth; i++ {
		n = d.AddElement(n, "n")
	}
	lines := strings.Split(strings.TrimSuffix(d.String(), "\n"), "\n")
	if len(lines) != 2*depth+1 {
		t.Fatalf("%d lines, want %d", len(lines), 2*depth+1)
	}
	if want := strings.Repeat("  ", depth) + "<n/>"; lines[depth] != want {
		t.Fatalf("innermost line = %q, want %q", lines[depth], want)
	}
	if want := strings.Repeat("  ", depth-1) + "</n>"; lines[depth+1] != want {
		t.Fatalf("first closing line = %q, want %q", lines[depth+1], want)
	}
}
