// Package-level robustness tests: every parser in the system must reject
// malformed input with an error, never a panic. This is the failure
// injection item of DESIGN.md §7, phrased as testing/quick properties over
// random byte strings and mutated valid documents.
package workload

import (
	"strings"
	"testing"
	"testing/quick"

	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/ontology"
	"graphitti/internal/query"
	"graphitti/internal/xmldoc"
	"graphitti/internal/xquery"
)

// neverPanics runs fn under recover and reports whether it completed.
func neverPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", name, r)
		}
	}()
	fn()
}

func TestParsersNeverPanicOnRandomInput(t *testing.T) {
	check := func(raw []byte) bool {
		s := string(raw)
		ok := true
		neverPanics(t, "xmldoc", func() { _, _ = xmldoc.Parse(strings.NewReader(s)) })
		neverPanics(t, "xquery", func() { _, _ = xquery.Compile(s) })
		neverPanics(t, "newick", func() { _, _ = phylo.ParseNewick("f", s) })
		neverPanics(t, "obo", func() { _, _ = ontology.ParseOBO(strings.NewReader(s)) })
		neverPanics(t, "fasta", func() { _, _ = seq.ParseFASTA(strings.NewReader(s), seq.DNA) })
		neverPanics(t, "query", func() { _, _ = query.Parse(s) })
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParsersNeverPanicOnMutatedValidInput corrupts valid documents at
// random positions — closer to real-world malformed files than pure noise.
func TestParsersNeverPanicOnMutatedValidInput(t *testing.T) {
	valid := map[string]struct {
		src   string
		parse func(string)
	}{
		"xmldoc": {
			`<annotation id="1"><meta><dc:creator>g</dc:creator></meta><body>text</body></annotation>`,
			func(s string) { _, _ = xmldoc.Parse(strings.NewReader(s)) },
		},
		"xquery": {
			`//referent[@kind='interval' and @lo > 10]`,
			func(s string) { _, _ = xquery.Compile(s) },
		},
		"newick": {
			`((goose:0.12,(duck:0.08,chicken:0.09)dc:0.03)wild:0.05,human:0.2)root;`,
			func(s string) { _, _ = phylo.ParseNewick("t", s) },
		},
		"obo": {
			"[Term]\nid: A:1\nname: alpha\n\n[Term]\nid: A:2\nis_a: A:1\n",
			func(s string) { _, _ = ontology.ParseOBO(strings.NewReader(s)) },
		},
		"fasta": {
			">s1 desc\nACGTACGT\n>s2\nGGCC\n",
			func(s string) { _, _ = seq.ParseFASTA(strings.NewReader(s), seq.DNA) },
		},
		"query": {
			`select graph where { ?a isa annotation ; contains "x" . ?r isa referent ; overlaps [1, 9) . ?a annotates ?r . } constrain disjoint(?r, ?r)`,
			func(s string) { _, _ = query.Parse(s) },
		},
	}
	mutate := func(src string, pos int, b byte, drop bool) string {
		if len(src) == 0 {
			return src
		}
		i := pos % len(src)
		if drop {
			return src[:i] + src[i+1:]
		}
		return src[:i] + string(b) + src[i:]
	}
	check := func(pos int, b byte, drop bool, second int) bool {
		if pos < 0 {
			pos = -pos
		}
		if second < 0 {
			second = -second
		}
		for name, tc := range valid {
			s := mutate(tc.src, pos, b, drop)
			s = mutate(s, second, b^0x5a, !drop)
			neverPanics(t, name, func() { tc.parse(s) })
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDeepNestingDoesNotOverflow guards the recursive parsers against
// stack exhaustion on pathologically nested input.
func TestDeepNestingDoesNotOverflow(t *testing.T) {
	const depth = 10_000
	neverPanics(t, "newick-deep", func() {
		_, _ = phylo.ParseNewick("d", strings.Repeat("(", depth)+"a"+strings.Repeat(")", depth)+";")
	})
	neverPanics(t, "xquery-deep", func() {
		_, _ = xquery.Compile(strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth))
	})
	neverPanics(t, "xml-deep", func() {
		_, _ = xmldoc.Parse(strings.NewReader(strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)))
	})
}
