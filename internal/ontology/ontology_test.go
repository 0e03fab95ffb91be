package ontology

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// buildEnzymes constructs a small molecular-function hierarchy:
//
//	enzyme
//	  ├─ hydrolase (is_a)
//	  │    ├─ protease (is_a)
//	  │    │    ├─ serine-protease (is_a)
//	  │    │    └─ metallo-protease (is_a)
//	  │    └─ nuclease (is_a)
//	  └─ kinase (is_a)
//	trypsin --instance_of--> serine-protease
//	protease --part_of--> proteolysis
func buildEnzymes(t testing.TB) *Ontology {
	o := New("enzymes")
	for _, id := range []string{
		"enzyme", "hydrolase", "protease", "serine-protease",
		"metallo-protease", "nuclease", "kinase", "trypsin", "proteolysis",
	} {
		if _, err := o.AddTerm(id, strings.ToUpper(id[:1])+id[1:]); err != nil {
			t.Fatal(err)
		}
	}
	edges := []struct{ from, to, rel string }{
		{"hydrolase", "enzyme", IsA},
		{"protease", "hydrolase", IsA},
		{"serine-protease", "protease", IsA},
		{"metallo-protease", "protease", IsA},
		{"nuclease", "hydrolase", IsA},
		{"kinase", "enzyme", IsA},
		{"trypsin", "serine-protease", InstanceOf},
		{"protease", "proteolysis", PartOf},
	}
	for _, e := range edges {
		if err := o.AddEdge(e.from, e.to, e.rel, Some); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func TestAddTermErrors(t *testing.T) {
	o := New("x")
	if _, err := o.AddTerm("", "no id"); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := o.AddTerm("a", "A"); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddTerm("a", "again"); !errors.Is(err, ErrDuplicateTerm) {
		t.Fatalf("duplicate: err = %v", err)
	}
	if err := o.AddEdge("a", "ghost", IsA, Some); !errors.Is(err, ErrNoSuchTerm) {
		t.Fatalf("edge to ghost: err = %v", err)
	}
	if err := o.AddEdge("ghost", "a", IsA, Some); !errors.Is(err, ErrNoSuchTerm) {
		t.Fatalf("edge from ghost: err = %v", err)
	}
}

func TestCI(t *testing.T) {
	o := buildEnzymes(t)
	got, err := o.CI("protease")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"metallo-protease", "serine-protease", "trypsin"}
	assertStrings(t, got, want)

	got, err = o.CI("enzyme")
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"hydrolase", "kinase", "metallo-protease", "nuclease",
		"protease", "serine-protease", "trypsin"}
	assertStrings(t, got, want)

	// Leaf has no instances.
	got, _ = o.CI("trypsin")
	if len(got) != 0 {
		t.Fatalf("CI(trypsin) = %v", got)
	}
	if _, err := o.CI("ghost"); !errors.Is(err, ErrNoSuchTerm) {
		t.Fatalf("CI ghost: err = %v", err)
	}
}

func TestCRI(t *testing.T) {
	o := buildEnzymes(t)
	// Only is_a: trypsin (instance_of) is excluded.
	got, err := o.CmRI("protease", []string{IsA})
	if err != nil {
		t.Fatal(err)
	}
	assertStrings(t, got, []string{"metallo-protease", "serine-protease"})

	// Only part_of: protease is part_of proteolysis.
	got, err = o.CmRI("proteolysis", []string{PartOf})
	if err != nil {
		t.Fatal(err)
	}
	assertStrings(t, got, []string{"protease"})
}

func TestCmRI(t *testing.T) {
	o := buildEnzymes(t)
	got, err := o.CmRI("proteolysis", []string{PartOf, IsA})
	if err != nil {
		t.Fatal(err)
	}
	// protease via part_of, then its is_a descendants.
	assertStrings(t, got, []string{"metallo-protease", "protease", "serine-protease"})
}

func TestMCmRI(t *testing.T) {
	o := buildEnzymes(t)
	got, err := o.MCmRI([]string{"kinase", "nuclease"}, []string{IsA, InstanceOf})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("leaves have no instances, got %v", got)
	}
	got, err = o.MCmRI([]string{"protease", "kinase"}, []string{IsA, InstanceOf})
	if err != nil {
		t.Fatal(err)
	}
	assertStrings(t, got, []string{"metallo-protease", "serine-protease", "trypsin"})
	if _, err := o.MCmRI([]string{"protease", "ghost"}, nil); !errors.Is(err, ErrNoSuchTerm) {
		t.Fatalf("mCmRI ghost: err = %v", err)
	}
}

func TestSubTree(t *testing.T) {
	o := buildEnzymes(t)
	st, err := o.SubTree("hydrolase", []string{IsA})
	if err != nil {
		t.Fatal(err)
	}
	assertStrings(t, st.Terms, []string{"hydrolase", "metallo-protease",
		"nuclease", "protease", "serine-protease"})
	if !slices.Contains(st.Terms, "protease") || slices.Contains(st.Terms, "kinase") {
		t.Fatal("Contains wrong")
	}
	if st.Size() != 5 {
		t.Fatalf("Size = %d", st.Size())
	}
	// Edges are the induced is_a restriction.
	for _, e := range st.Edges {
		if e.Rel != IsA {
			t.Fatalf("unexpected edge %v", e)
		}
		if !slices.Contains(st.Terms, e.From) || !slices.Contains(st.Terms, e.To) {
			t.Fatalf("edge %v leaves subtree", e)
		}
	}
	if len(st.Edges) != 4 {
		t.Fatalf("edges = %d, want 4", len(st.Edges))
	}
}

func TestSubTreeDiff(t *testing.T) {
	o := buildEnzymes(t)
	st, err := o.SubTreeDiff("hydrolase", "protease", []string{IsA})
	if err != nil {
		t.Fatal(err)
	}
	assertStrings(t, st.Terms, []string{"hydrolase", "nuclease"})

	// Y not a descendant of X.
	if _, err := o.SubTreeDiff("hydrolase", "kinase", []string{IsA}); !errors.Is(err, ErrNotDescendant) {
		t.Fatalf("non-descendant: err = %v", err)
	}
	// X == Y.
	if _, err := o.SubTreeDiff("protease", "protease", []string{IsA}); !errors.Is(err, ErrNotDescendant) {
		t.Fatalf("x==y: err = %v", err)
	}
	// Diff is always a subset of the subtree (paper's algebraic identity).
	full, _ := o.SubTree("hydrolase", []string{IsA})
	for _, id := range st.Terms {
		if !slices.Contains(full.Terms, id) {
			t.Fatalf("%s in diff but not in subtree", id)
		}
	}
}

func TestIsDescendant(t *testing.T) {
	o := buildEnzymes(t)
	// y is under x when it is among x's instances by rels.
	isDescendant := func(y, x string, rels []string) bool {
		got, err := o.CmRI(x, rels)
		return err == nil && slices.Contains(got, y)
	}
	if !isDescendant("trypsin", "enzyme", InstanceRelations) {
		t.Fatal("trypsin should be under enzyme")
	}
	if isDescendant("kinase", "hydrolase", []string{IsA}) {
		t.Fatal("kinase is not under hydrolase")
	}
	if isDescendant("enzyme", "enzyme", nil) {
		t.Fatal("a term is not its own descendant")
	}
	if isDescendant("ghost", "enzyme", nil) || isDescendant("enzyme", "ghost", nil) {
		t.Fatal("ghost terms cannot be descendants")
	}
}

func TestValidateCycle(t *testing.T) {
	o := buildEnzymes(t)
	if err := o.Validate(); err != nil {
		t.Fatalf("valid DAG rejected: %v", err)
	}
	// Introduce an is_a cycle.
	if err := o.AddEdge("enzyme", "protease", IsA, Some); err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle not detected: %v", err)
	}
	// Traversals must still terminate on cyclic graphs.
	if _, err := o.CI("protease"); err != nil {
		t.Fatalf("CI on cyclic graph errored: %v", err)
	}
}

func TestRootsAndNames(t *testing.T) {
	o := buildEnzymes(t)
	roots := o.Roots()
	assertStrings(t, roots, []string{"enzyme", "proteolysis", "trypsin"})

	term, ok := o.TermByName("Protease")
	if !ok || term.ID != "protease" {
		t.Fatalf("TermByName = %v, %v", term, ok)
	}
	term, _ = o.Term("kinase")
	term.Synonyms = append(term.Synonyms, "phosphotransferase")
	got, ok := o.TermByName("phosphotransferase")
	if !ok || got.ID != "kinase" {
		t.Fatal("synonym lookup failed")
	}
	if _, ok := o.TermByName("nothing"); ok {
		t.Fatal("ghost name found")
	}
}

const oboSample = `format-version: 1.2
ontology: nif-sample

[Term]
id: NIF:0001
name: brain region

[Term]
id: NIF:0002
name: cerebellum
is_a: NIF:0001 ! brain region

[Term]
id: NIF:0003
name: deep cerebellar nuclei
synonym: "Deep Cerebellar nuclei" EXACT []
def: "The clusters of neurons in the white matter of the cerebellum." []
is_a: NIF:0002
relationship: part_of NIF:0002

[Typedef]
id: part_of
name: part of
`

func TestParseOBO(t *testing.T) {
	o, err := ParseOBO(strings.NewReader(oboSample))
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "nif-sample" {
		t.Fatalf("name = %q", o.Name())
	}
	if o.Len() != 3 {
		t.Fatalf("terms = %d", o.Len())
	}
	dcn, ok := o.Term("NIF:0003")
	if !ok || dcn.Name != "deep cerebellar nuclei" {
		t.Fatalf("NIF:0003 = %+v", dcn)
	}
	if len(dcn.Synonyms) != 1 || dcn.Synonyms[0] != "Deep Cerebellar nuclei" {
		t.Fatalf("synonyms = %v", dcn.Synonyms)
	}
	if dcn.Def == "" {
		t.Fatal("def not parsed")
	}
	got, err := o.CI("NIF:0001")
	if err != nil {
		t.Fatal(err)
	}
	assertStrings(t, got, []string{"NIF:0002", "NIF:0003"})
	got, err = o.CmRI("NIF:0002", []string{PartOf})
	if err != nil {
		t.Fatal(err)
	}
	assertStrings(t, got, []string{"NIF:0003"})
}

func TestParseOBOErrors(t *testing.T) {
	cases := []string{
		"[Term]\nname: before id\n",
		"[Term]\nid: a\nis_a: ghost\n",
		"[Term]\nid: a\n[Term]\nid: a\n",
		"[Term]\nid: a\nrelationship: part_of\n",
		"[Term]\nid: a\nbadline\n",
	}
	for i, src := range cases {
		if _, err := ParseOBO(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: no error for %q", i, src)
		}
	}
}

func TestOBORoundTrip(t *testing.T) {
	o := buildEnzymes(t)
	var sb strings.Builder
	if err := o.WriteOBO(&sb); err != nil {
		t.Fatal(err)
	}
	o2, err := ParseOBO(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, sb.String())
	}
	if o2.Len() != o.Len() || o2.EdgeCount() != o.EdgeCount() {
		t.Fatalf("round trip: %d/%d terms, %d/%d edges",
			o2.Len(), o.Len(), o2.EdgeCount(), o.EdgeCount())
	}
	a, _ := o.CI("enzyme")
	b, _ := o2.CI("enzyme")
	assertStrings(t, b, a)
}

// TestQuickSubTreeIdentities checks algebraic identities on generated
// layered DAGs: CI(c) == SubTree(c).Terms − {c} under instance relations,
// and SubTreeDiff ⊆ SubTree.
func TestQuickSubTreeIdentities(t *testing.T) {
	check := func(layerSizes [4]uint8, linkBits []byte) bool {
		o := New("gen")
		var layers [][]string
		id := 0
		for _, sz := range layerSizes {
			n := int(sz%4) + 1
			var layer []string
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("t%d", id)
				id++
				if _, err := o.AddTerm(name, name); err != nil {
					return false
				}
				layer = append(layer, name)
			}
			layers = append(layers, layer)
		}
		// Link each term to one or two parents in the layer above
		// (child -> parent, acyclic by construction).
		bit := 0
		nextBit := func() int {
			if len(linkBits) == 0 {
				return 0
			}
			b := int(linkBits[bit%len(linkBits)])
			bit++
			return b
		}
		for li := 1; li < len(layers); li++ {
			for _, child := range layers[li] {
				parents := layers[li-1]
				p1 := parents[nextBit()%len(parents)]
				if err := o.AddEdge(child, p1, IsA, Some); err != nil {
					return false
				}
				if nextBit()%3 == 0 {
					p2 := parents[nextBit()%len(parents)]
					if p2 != p1 {
						_ = o.AddEdge(child, p2, IsA, Some)
					}
				}
			}
		}
		if err := o.Validate(); err != nil {
			return false
		}
		root := layers[0][0]
		ci, err := o.CI(root)
		if err != nil {
			return false
		}
		st, err := o.SubTree(root, InstanceRelations)
		if err != nil {
			return false
		}
		if len(ci) != st.Size()-1 {
			return false
		}
		for _, term := range ci {
			if !slices.Contains(st.Terms, term) {
				return false
			}
		}
		// Diff identity for any proper descendant.
		if len(ci) > 0 {
			y := ci[0]
			diff, err := o.SubTreeDiff(root, y, InstanceRelations)
			if err != nil {
				return false
			}
			for _, term := range diff.Terms {
				if !slices.Contains(st.Terms, term) || term == y {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func assertStrings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func BenchmarkCI(b *testing.B) {
	// A 6-level tree with fanout 5: 5^0 + ... + 5^5 = 3906 terms.
	o := New("bench")
	_, _ = o.AddTerm("root", "root")
	frontier := []string{"root"}
	id := 0
	for depth := 0; depth < 5; depth++ {
		var next []string
		for _, parent := range frontier {
			for i := 0; i < 5; i++ {
				name := fmt.Sprintf("n%d", id)
				id++
				_, _ = o.AddTerm(name, name)
				_ = o.AddEdge(name, parent, IsA, Some)
				next = append(next, name)
			}
		}
		frontier = next
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.CI("root"); err != nil {
			b.Fatal(err)
		}
	}
}

// MCmRI returns all instances reachable from any concept in cs using only
// edges from rels (the paper's mCmRI). Concepts themselves are excluded
// unless they are instances of another listed concept.
func (o *Ontology) MCmRI(cs []string, rels []string) ([]string, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	union := make(map[string]bool)
	for _, c := range cs {
		if _, ok := o.terms[c]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchTerm, c)
		}
	}
	for _, c := range cs {
		seen := o.descendantsLocked(c, rels)
		delete(seen, c)
		for id := range seen {
			union[id] = true
		}
	}
	return sortedKeys(union), nil
}

// ErrNotDescendant reports a SubTreeDiff whose second term is not under
// its first.
var ErrNotDescendant = errors.New("ontology: term is not a descendant")

// SubTreeDiff returns SubTree(x, rels) minus SubTree(y, rels). Per the
// paper, y must be a descendant of x under rels.
func (o *Ontology) SubTreeDiff(x, y string, rels []string) (*SubTree, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if _, ok := o.terms[x]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTerm, x)
	}
	if _, ok := o.terms[y]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTerm, y)
	}
	under := o.descendantsLocked(x, rels)
	if !under[y] || y == x {
		return nil, fmt.Errorf("%w: %s under %s", ErrNotDescendant, y, x)
	}
	minus := o.descendantsLocked(y, rels)
	kept := make(map[string]bool)
	for id := range under {
		if !minus[id] {
			kept[id] = true
		}
	}
	st := &SubTree{Root: x, Terms: sortedKeys(kept)}
	allowed := make(map[string]bool, len(rels))
	for _, r := range rels {
		allowed[r] = true
	}
	for _, id := range st.Terms {
		for _, e := range o.out[id] {
			if len(rels) > 0 && !allowed[e.Rel] {
				continue
			}
			if kept[e.To] {
				st.Edges = append(st.Edges, e)
			}
		}
	}
	return st, nil
}

// WriteOBO serialises the ontology to the OBO subset read by ParseOBO.
func (o *Ontology) WriteOBO(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "format-version: 1.2\nontology: %s\n", o.name)
	for _, id := range o.Terms() {
		t, _ := o.Term(id)
		fmt.Fprintf(bw, "\n[Term]\nid: %s\nname: %s\n", t.ID, t.Name)
		if t.Def != "" {
			fmt.Fprintf(bw, "def: %q []\n", t.Def)
		}
		for _, s := range t.Synonyms {
			fmt.Fprintf(bw, "synonym: %q EXACT []\n", s)
		}
		for _, e := range o.Parents(id) {
			if e.Rel == IsA {
				fmt.Fprintf(bw, "is_a: %s\n", e.To)
			} else {
				fmt.Fprintf(bw, "relationship: %s %s\n", e.Rel, e.To)
			}
		}
	}
	return bw.Flush()
}
