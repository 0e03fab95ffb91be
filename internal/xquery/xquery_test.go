package xquery

import (
	"strings"
	"testing"
	"testing/quick"

	"graphitti/internal/xmldoc"
)

const sample = `<annotation id="a7" kind="comment">
  <dc>
    <creator>gupta</creator>
    <subject>influenza</subject>
    <date>2007-11-02</date>
  </dc>
  <body>The protease cleavage site overlaps segment 3.</body>
  <referent type="sequence" object="NC_007362" lo="100" hi="240"/>
  <referent type="image" object="brain-17" lo="0" hi="0"/>
  <ontologyRef term="GO:0008233"/>
</annotation>`

func doc(t *testing.T) *xmldoc.Document {
	t.Helper()
	d, err := xmldoc.ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func evalNodes(t *testing.T, d *xmldoc.Document, expr string) []xmldoc.Node {
	t.Helper()
	q, err := Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	ns, err := q.Eval(d)
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	return ns
}

func evalStr(t *testing.T, d *xmldoc.Document, expr string) string {
	t.Helper()
	q, err := Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	s, err := q.EvalString(d)
	if err != nil {
		t.Fatalf("EvalString(%q): %v", expr, err)
	}
	return s
}

func evalBool(t *testing.T, d *xmldoc.Document, expr string) bool {
	t.Helper()
	q, err := Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	b, err := q.EvalBool(d)
	if err != nil {
		t.Fatalf("EvalBool(%q): %v", expr, err)
	}
	return b
}

func TestAbsolutePaths(t *testing.T) {
	d := doc(t)
	tests := []struct {
		expr string
		n    int
	}{
		{"/annotation", 1},
		{"/annotation/dc", 1},
		{"/annotation/dc/creator", 1},
		{"/annotation/referent", 2},
		{"/nothing", 0},
		{"/annotation/nothing", 0},
		{"//referent", 2},
		{"//creator", 1},
		{"/annotation/*", 5},
		{"//*", 9},
		{"/", 1},
	}
	for _, tc := range tests {
		if got := len(evalNodes(t, d, tc.expr)); got != tc.n {
			t.Errorf("%q matched %d nodes, want %d", tc.expr, got, tc.n)
		}
	}
}

func TestRelativePathFromRoot(t *testing.T) {
	d := doc(t)
	// Relative paths evaluate with the root element as context.
	if got := len(evalNodes(t, d, "dc/creator")); got != 1 {
		t.Errorf("dc/creator matched %d", got)
	}
	if got := len(evalNodes(t, d, "referent")); got != 2 {
		t.Errorf("referent matched %d", got)
	}
}

func TestTextNodes(t *testing.T) {
	d := doc(t)
	ns := evalNodes(t, d, "/annotation/body/text()")
	if len(ns) != 1 || !strings.Contains(ns[0].Value(), "protease") {
		t.Fatalf("body text() = %v", ns)
	}
}

func TestAttributes(t *testing.T) {
	d := doc(t)
	if got := evalStr(t, d, "/annotation/@id"); got != "a7" {
		t.Errorf("@id = %q", got)
	}
	if got := len(evalNodes(t, d, "//referent/@type")); got != 2 {
		t.Errorf("//referent/@type matched %d", got)
	}
	if got := len(evalNodes(t, d, "/annotation/@*")); got != 2 {
		t.Errorf("@* matched %d", got)
	}
}

func TestPredicates(t *testing.T) {
	d := doc(t)
	tests := []struct {
		expr string
		n    int
	}{
		{"//referent[@type='sequence']", 1},
		{"//referent[@type='image']", 1},
		{"//referent[@type='video']", 0},
		{"//referent[1]", 1},
		{"//referent[2]", 1},
		{"//referent[3]", 0},
		{"//referent[position()=2]", 1},
		{"//referent[last()]", 1},
		{"//referent[@lo='100' and @hi='240']", 1},
		{"//referent[@type='image' or @type='sequence']", 2},
		{"/annotation[dc/creator='gupta']", 1},
		{"/annotation[dc/creator='nobody']", 0},
		{"//referent[@lo > 50]", 1},
		{"//referent[@lo >= 0]", 2},
		{"//referent[not(@type='image')]", 1},
	}
	for _, tc := range tests {
		if got := len(evalNodes(t, d, tc.expr)); got != tc.n {
			t.Errorf("%q matched %d nodes, want %d", tc.expr, got, tc.n)
		}
	}
}

func TestContains(t *testing.T) {
	d := doc(t)
	if !evalBool(t, d, "contains(/annotation/body, 'protease')") {
		t.Error("contains(body, protease) = false")
	}
	if evalBool(t, d, "contains(/annotation/body, 'kinase')") {
		t.Error("contains(body, kinase) = true")
	}
	if got := len(evalNodes(t, d, "//body[contains(., 'protease')]")); got != 1 {
		t.Errorf("predicate contains matched %d", got)
	}
	if !evalBool(t, d, "starts-with(/annotation/dc/date, '2007')") {
		t.Error("starts-with failed")
	}
}

func TestCountAndArithmetic(t *testing.T) {
	d := doc(t)
	q := MustCompile("count(//referent)")
	v, err := q.EvalValue(d)
	if err != nil || v.AsNumber() != 2 {
		t.Fatalf("count(//referent) = %v, %v", v, err)
	}
	q = MustCompile("count(//referent) + 1")
	v, _ = q.EvalValue(d)
	if v.AsNumber() != 3 {
		t.Fatalf("count+1 = %v", v.AsNumber())
	}
	if !evalBool(t, d, "count(//referent) >= 2") {
		t.Error("count comparison failed")
	}
}

func TestStringFunctions(t *testing.T) {
	d := doc(t)
	if got := evalStr(t, d, "concat(/annotation/dc/creator, ':', /annotation/dc/subject)"); got != "gupta:influenza" {
		t.Errorf("concat = %q", got)
	}
	if got := evalStr(t, d, "substring-before(/annotation/dc/date, '-')"); got != "2007" {
		t.Errorf("substring-before = %q", got)
	}
	if got := evalStr(t, d, "substring-after(//ontologyRef/@term, ':')"); got != "0008233" {
		t.Errorf("substring-after = %q", got)
	}
	if got := evalStr(t, d, "normalize-space('  a   b ')"); got != "a b" {
		t.Errorf("normalize-space = %q", got)
	}
	q := MustCompile("string-length(/annotation/dc/creator)")
	v, _ := q.EvalValue(d)
	if v.AsNumber() != 5 {
		t.Errorf("string-length = %v", v.AsNumber())
	}
}

func TestParentAndSelf(t *testing.T) {
	d := doc(t)
	ns := evalNodes(t, d, "//creator/..")
	if len(ns) != 1 || ns[0].Name() != "dc" {
		t.Fatalf("//creator/.. = %v", ns)
	}
	ns = evalNodes(t, d, "//creator/.")
	if len(ns) != 1 || ns[0].Name() != "creator" {
		t.Fatalf("//creator/. = %v", ns)
	}
}

func TestDescendantDeduplication(t *testing.T) {
	d, err := xmldoc.ParseString(`<a><b><c/><c/></b><b><c/></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	// //b//c must not duplicate results.
	q := MustCompile("//b//c")
	ns, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 3 {
		t.Fatalf("//b//c matched %d nodes, want 3", len(ns))
	}
	seen := map[uint64]bool{}
	for _, n := range ns {
		if seen[n.ID()] {
			t.Fatal("duplicate node in result")
		}
		seen[n.ID()] = true
	}
}

func TestDocumentOrder(t *testing.T) {
	d, err := xmldoc.ParseString(`<a><x>1</x><y>2</y><x>3</x></a>`)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := MustCompile("//x").Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 || ns[0].Text() != "1" || ns[1].Text() != "3" {
		t.Fatalf("//x order wrong: %v", ns)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"/annotation[",
		"//referent[@type=]",
		"foo(",
		"unknownfn(1)",
		"contains('a')", // wrong arity
		"count(1,2)",    // wrong arity
		"/annotation/referent]",
		"'unterminated",
		"//a ! b",
		"@",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestEvalTypeError(t *testing.T) {
	d := doc(t)
	q := MustCompile("count(//referent)")
	if _, err := q.Eval(d); err == nil {
		t.Fatal("Eval of a numeric expression should fail; use EvalValue")
	}
}

func TestQueryStringRendering(t *testing.T) {
	// The rendered form must recompile to an equivalent query.
	exprs := []string{
		"/annotation/dc/creator",
		"//referent[@type='sequence'][1]",
		"count(//referent) + 1",
		"contains(/a/b, 'x') and //c",
		"//body/text()",
		"//a/@href",
	}
	d := doc(t)
	for _, src := range exprs {
		q1 := MustCompile(src)
		q2, err := Compile(q1.String())
		if err != nil {
			t.Errorf("rendered form %q does not recompile: %v", q1.String(), err)
			continue
		}
		v1, err1 := q1.EvalValue(d)
		v2, err2 := q2.EvalValue(d)
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("%q: eval error mismatch", src)
			continue
		}
		if err1 == nil && v1.AsString() != v2.AsString() {
			t.Errorf("%q: %q vs %q after re-render", src, v1.AsString(), v2.AsString())
		}
	}
}

func TestValueConversions(t *testing.T) {
	tests := []struct {
		v    Value
		b    bool
		s    string
		nOK  bool
		nVal float64
	}{
		{Value{Kind: StringValue, Str: ""}, false, "", false, 0},
		{Value{Kind: StringValue, Str: "12"}, true, "12", true, 12},
		{Value{Kind: NumberValue, Num: 0}, false, "0", true, 0},
		{Value{Kind: NumberValue, Num: 2.5}, true, "2.5", true, 2.5},
		{Value{Kind: BooleanValue, Bool: true}, true, "true", true, 1},
		{Value{Kind: NodeSetValue}, false, "", false, 0},
	}
	for _, tc := range tests {
		if tc.v.AsBool() != tc.b {
			t.Errorf("%+v AsBool = %v", tc.v, tc.v.AsBool())
		}
		if tc.v.AsString() != tc.s {
			t.Errorf("%+v AsString = %q", tc.v, tc.v.AsString())
		}
		if tc.nOK && tc.v.AsNumber() != tc.nVal {
			t.Errorf("%+v AsNumber = %v", tc.v, tc.v.AsNumber())
		}
	}
}

// TestQuickNumericPredicates cross-checks numeric position predicates
// against manual indexing for generated sibling counts.
func TestQuickNumericPredicates(t *testing.T) {
	check := func(count uint8, pick uint8) bool {
		n := int(count%20) + 1
		d := xmldoc.NewDocument("r")
		for i := 0; i < n; i++ {
			d.AddElementText(d.Root, "item", string(rune('a'+i%26)))
		}
		k := int(pick)%n + 1
		q, err := Compile("/r/item[" + itoa(k) + "]")
		if err != nil {
			return false
		}
		ns, err := q.Eval(d)
		if err != nil || len(ns) != 1 {
			return false
		}
		return ns[0].Text() == string(rune('a'+(k-1)%26))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestQuickContainsConsistency verifies contains() against strings.Contains
// over generated documents.
func TestQuickContainsConsistency(t *testing.T) {
	check := func(body, probe string) bool {
		clean := sanitizeText(body)
		d := xmldoc.NewDocument("r")
		d.AddElementText(d.Root, "body", clean)
		p := sanitizeText(probe)
		if p == "" {
			p = "z"
		}
		q, err := Compile("contains(/r/body, '" + p + "')")
		if err != nil {
			return false
		}
		got, err := q.EvalBool(d)
		if err != nil {
			return false
		}
		return got == strings.Contains(clean, p)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sanitizeText(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == ' ' {
			sb.WriteRune(r)
		}
	}
	return strings.TrimSpace(sb.String())
}

func BenchmarkEvalDescendant(b *testing.B) {
	d := xmldoc.NewDocument("root")
	for i := 0; i < 200; i++ {
		sec := d.AddElement(d.Root, "section")
		for j := 0; j < 10; j++ {
			d.AddElementText(sec, "para", "some text with protease maybe")
		}
	}
	q := MustCompile("//para[contains(., 'protease')]")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(d); err != nil {
			b.Fatal(err)
		}
	}
}
