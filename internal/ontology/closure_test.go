package ontology

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// multiParentOBO is a diamond-shaped fixture with a multi-parent term
// (GO:5 is_a GO:3 and is_a GO:4, which both is_a GO:2) plus a part_of
// branch — the closure shapes the propagation engine leans on.
//
//	    GO:1 (root)
//	      |
//	    GO:2
//	   /    \
//	GO:3    GO:4        CC:1
//	   \    /             | part_of
//	    GO:5 ------------ CC:2 (GO:5 part_of CC:2)
//	      |
//	    GO:6
const multiParentOBO = `format-version: 1.2
ontology: fixture

[Term]
id: GO:1
name: molecular function

[Term]
id: GO:2
name: catalytic activity
is_a: GO:1

[Term]
id: GO:3
name: hydrolase activity
is_a: GO:2

[Term]
id: GO:4
name: peptide bond activity
is_a: GO:2

[Term]
id: GO:5
name: peptidase activity
synonym: "protease activity" EXACT []
is_a: GO:3 ! hydrolase
is_a: GO:4 ! peptide bond
relationship: part_of CC:2 ! membrane

[Term]
id: GO:6
name: serine peptidase activity
is_a: GO:5

[Term]
id: CC:1
name: cell

[Term]
id: CC:2
name: membrane
relationship: part_of CC:1
`

func mustFixture(t *testing.T) *Ontology {
	t.Helper()
	o, err := ParseOBO(strings.NewReader(multiParentOBO))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("fixture must be acyclic: %v", err)
	}
	return o
}

func TestCIOverMultiParentDAG(t *testing.T) {
	o := mustFixture(t)
	// CI(GO:2) must reach GO:5 through either parent, counted once.
	ci, err := o.CI("GO:2")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"GO:3", "GO:4", "GO:5", "GO:6"}; !reflect.DeepEqual(ci, want) {
		t.Fatalf("CI(GO:2) = %v, want %v", ci, want)
	}
	// CI never traverses part_of: CC:1's instances exclude GO:5.
	ci, err = o.CI("CC:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ci) != 0 {
		t.Fatalf("CI(CC:1) = %v, want none (part_of is not an instance relation)", ci)
	}
	if _, err := o.CI("GO:404"); !errors.Is(err, ErrNoSuchTerm) {
		t.Fatalf("CI of missing term: %v", err)
	}
}

func TestCmRIRelationRestriction(t *testing.T) {
	o := mustFixture(t)
	// Restricted to part_of, CC:1 is reached only by the part_of chain.
	got, err := o.CmRI("CC:1", []string{PartOf})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"CC:2", "GO:5"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("CmRI(CC:1, part_of) = %v, want %v", got, want)
	}
	// Mixed relation set: is_a+part_of reaches GO:6 under CC:1 too
	// (GO:6 is_a GO:5 part_of CC:2 part_of CC:1).
	got, err = o.CmRI("CC:1", []string{IsA, PartOf})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"CC:2", "GO:5", "GO:6"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("CmRI(CC:1, is_a+part_of) = %v, want %v", got, want)
	}
}

func TestSubTreeOverMultiParentDAG(t *testing.T) {
	o := mustFixture(t)
	st, err := o.SubTree("GO:2", []string{IsA})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"GO:2", "GO:3", "GO:4", "GO:5", "GO:6"}; !reflect.DeepEqual(st.Terms, want) {
		t.Fatalf("SubTree(GO:2).Terms = %v, want %v", st.Terms, want)
	}
	// The diamond keeps both of GO:5's parent edges in the restriction.
	edgesFrom5 := 0
	for _, e := range st.Edges {
		if e.From == "GO:5" {
			edgesFrom5++
		}
	}
	if edgesFrom5 != 2 {
		t.Fatalf("SubTree kept %d edges from the multi-parent term, want 2", edgesFrom5)
	}
	if !slices.Contains(st.Terms, "GO:6") || slices.Contains(st.Terms, "CC:1") {
		t.Fatal("SubTree membership wrong")
	}

	// SubTree(X) - SubTree(Y) removes the diamond below GO:5.
	diff, err := o.SubTreeDiff("GO:2", "GO:5", []string{IsA})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"GO:2", "GO:3", "GO:4"}; !reflect.DeepEqual(diff.Terms, want) {
		t.Fatalf("SubTreeDiff = %v, want %v", diff.Terms, want)
	}
	if _, err := o.SubTreeDiff("GO:5", "GO:2", []string{IsA}); !errors.Is(err, ErrNotDescendant) {
		t.Fatalf("inverted SubTreeDiff: %v", err)
	}
}

func TestAncestorsOverMultiParentDAG(t *testing.T) {
	o := mustFixture(t)
	// The upward closure the propagation engine materializes: both
	// parents of the diamond, deduplicated, plus the part_of branch.
	anc, err := o.Ancestors("GO:6", []string{IsA, PartOf})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"CC:1", "CC:2", "GO:1", "GO:2", "GO:3", "GO:4", "GO:5"}; !reflect.DeepEqual(anc, want) {
		t.Fatalf("Ancestors(GO:6) = %v, want %v", anc, want)
	}
	anc, err = o.Ancestors("GO:6", []string{IsA})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"GO:1", "GO:2", "GO:3", "GO:4", "GO:5"}; !reflect.DeepEqual(anc, want) {
		t.Fatalf("Ancestors(GO:6, is_a) = %v, want %v", anc, want)
	}
	if _, err := o.Ancestors("GO:404", nil); !errors.Is(err, ErrNoSuchTerm) {
		t.Fatalf("Ancestors of missing term: %v", err)
	}
}

func TestCycleRejection(t *testing.T) {
	// An is_a cycle parses (edges are structurally fine) but Validate
	// rejects it, and the closure traversals terminate regardless.
	cyclic := `[Term]
id: A:1
is_a: A:3

[Term]
id: A:2
is_a: A:1

[Term]
id: A:3
is_a: A:2
`
	o, err := ParseOBO(strings.NewReader(cyclic))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate on cycle: %v, want ErrCycle", err)
	}
	// Cycle-safe traversal: every term is an "instance" of A:1 except
	// itself, and the call returns rather than looping.
	ci, err := o.CI("A:1")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"A:2", "A:3"}; !reflect.DeepEqual(ci, want) {
		t.Fatalf("CI over cycle = %v, want %v", ci, want)
	}
	anc, err := o.Ancestors("A:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"A:2", "A:3"}; !reflect.DeepEqual(anc, want) {
		t.Fatalf("Ancestors over cycle = %v, want %v", anc, want)
	}
}
