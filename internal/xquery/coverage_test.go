package xquery

import (
	"errors"
	"strings"
	"testing"

	"graphitti/internal/xmldoc"
)

func TestSourceAndSyntaxError(t *testing.T) {
	q := MustCompile("/a/b")
	if q.String() != "/a/b" {
		t.Fatalf("Source = %q", q.String())
	}
	_, err := Compile("//a[")
	if err == nil {
		t.Fatal("expected error")
	}
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("error type = %T", err)
	}
	if !strings.Contains(se.Error(), "offset") {
		t.Fatalf("Error() = %q", se.Error())
	}
}

func TestUnaryMinusAndArithmetic(t *testing.T) {
	d, _ := xmldoc.Parse(strings.NewReader("<r><n>5</n></r>"))
	cases := []struct {
		expr string
		want float64
	}{
		{"-3", -3},
		{"- 3 + 10", 7},
		{"/r/n - 2", 3},
		{"2 - -2", 4},
	}
	for _, tc := range cases {
		q := MustCompile(tc.expr)
		v, err := q.EvalValue(d)
		if err != nil {
			t.Fatalf("%q: %v", tc.expr, err)
		}
		if v.AsNumber() != tc.want {
			t.Errorf("%q = %v, want %v", tc.expr, v.AsNumber(), tc.want)
		}
	}
}

func TestNodeSetComparisons(t *testing.T) {
	d, _ := xmldoc.Parse(strings.NewReader(`<r><v>1</v><v>5</v><v>9</v><w>5</w></r>`))
	cases := []struct {
		expr string
		want bool
	}{
		{"/r/v = 5", true}, // existential: some v equals 5
		{"/r/v = 4", false},
		{"/r/v != 5", true}, // some v differs from 5
		{"/r/v > 8", true},
		{"/r/v < 1", false},
		{"/r/v = /r/w", true},  // node-set vs node-set: some pair equal
		{"/r/v >= /r/w", true}, // 5 >= 5 or 9 >= 5
		{"5 = /r/w", true},     // literal on the left
		{"10 < /r/v", false},   // no v above 10? 9 < 10, so false
		{"true() = /r/w", true},
	}
	for _, tc := range cases {
		got, err := MustCompile(tc.expr).EvalBool(d)
		if err != nil {
			t.Fatalf("%q: %v", tc.expr, err)
		}
		if got != tc.want {
			t.Errorf("%q = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestBooleanComparisons(t *testing.T) {
	d, _ := xmldoc.Parse(strings.NewReader(`<r><v>x</v></r>`))
	cases := []struct {
		expr string
		want bool
	}{
		{"true() = true()", true},
		{"true() != false()", true},
		{"not(false())", true},
		{"1 = true()", true}, // boolean coercion
	}
	for _, tc := range cases {
		got, err := MustCompile(tc.expr).EvalBool(d)
		if err != nil {
			t.Fatalf("%q: %v", tc.expr, err)
		}
		if got != tc.want {
			t.Errorf("%q = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestNameFunction(t *testing.T) {
	d, _ := xmldoc.Parse(strings.NewReader(`<root><child/></root>`))
	if got := evalStr(t, d, "name(/root/child)"); got != "child" {
		t.Fatalf("name(path) = %q", got)
	}
	if got := evalStr(t, d, "name()"); got != "root" {
		t.Fatalf("name() = %q", got)
	}
	if got := evalStr(t, d, "name(/nothing)"); got != "" {
		t.Fatalf("name(empty) = %q", got)
	}
}

func TestNumberStringFunctions(t *testing.T) {
	d, _ := xmldoc.Parse(strings.NewReader(`<r><n> 42 </n></r>`))
	v, err := MustCompile("number(/r/n)").EvalValue(d)
	if err != nil || v.AsNumber() != 42 {
		t.Fatalf("number = %v, %v", v, err)
	}
	if s := evalStr(t, d, "string(3.5)"); s != "3.5" {
		t.Fatalf("string(3.5) = %q", s)
	}
	if s := evalStr(t, d, "string(count(/r/n))"); s != "1" {
		t.Fatalf("string(count) = %q", s)
	}
	// NaN conversions are safe.
	v, err = MustCompile("number('abc')").EvalValue(d)
	if err != nil {
		t.Fatal(err)
	}
	if v.AsNumber() == v.AsNumber() { // NaN != NaN
		t.Fatalf("number('abc') = %v, want NaN", v.AsNumber())
	}
	if v.AsBool() {
		t.Fatal("NaN must be falsy")
	}
}

func TestEvalOnNilDocument(t *testing.T) {
	q := MustCompile("/a")
	if _, err := q.EvalValue(nil); err == nil {
		t.Fatal("nil document accepted")
	}
	if _, err := q.Eval(nil); err == nil {
		t.Fatal("nil document accepted by Eval")
	}
	if _, err := q.EvalBool(nil); err == nil {
		t.Fatal("nil document accepted by EvalBool")
	}
}

func TestEvalTypeErrorNames(t *testing.T) {
	d, _ := xmldoc.Parse(strings.NewReader("<a/>"))
	// Eval on each non-node-set kind mentions the kind name.
	for _, expr := range []string{"count(/a)", "'str'", "true()"} {
		_, err := MustCompile(expr).Eval(d)
		if err == nil {
			t.Fatalf("%q: expected type error", expr)
		}
	}
}

func TestDescendantAttributeStep(t *testing.T) {
	d, _ := xmldoc.Parse(strings.NewReader(`<r><a k="1"/><b><a k="2"/></b></r>`))
	ns, err := MustCompile("//a/@k").Eval(d)
	if err != nil || len(ns) != 2 {
		t.Fatalf("//a/@k = %d nodes, %v", len(ns), err)
	}
	// Attribute node string values.
	if got := evalStr(t, d, "//b/a/@k"); got != "2" {
		t.Fatalf("//b/a/@k = %q", got)
	}
}

func TestPositionLastInNestedPredicates(t *testing.T) {
	d, _ := xmldoc.Parse(strings.NewReader(`<r><s><i>a</i><i>b</i></s><s><i>c</i></s></r>`))
	ns, err := MustCompile("/r/s[last()]/i[1]").Eval(d)
	if err != nil || len(ns) != 1 || ns[0].Text() != "c" {
		t.Fatalf("nested positional = %v, %v", ns, err)
	}
	ns, err = MustCompile("//i[position() = 2]").Eval(d)
	if err != nil || len(ns) != 1 || ns[0].Text() != "b" {
		t.Fatalf("position()=2 = %v, %v", ns, err)
	}
}
