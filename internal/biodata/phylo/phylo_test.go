package phylo

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

const h5n1 = "((goose:0.12,(duck:0.08,chicken:0.09)dc:0.03)wild:0.05,(human1:0.2,human2:0.18)hu:0.07)root;"

func tree(t *testing.T) *Tree {
	t.Helper()
	tr, err := ParseNewick("h5n1", h5n1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseNewick(t *testing.T) {
	tr := tree(t)
	if tr.Root.Name != "root" {
		t.Fatalf("root name = %q", tr.Root.Name)
	}
	if got := tr.NumLeaves(); got != 5 {
		t.Fatalf("leaves = %d", got)
	}
	leaves := tr.Root.Leaves()
	want := []string{"chicken", "duck", "goose", "human1", "human2"}
	for i := range want {
		if leaves[i] != want[i] {
			t.Fatalf("leaves = %v", leaves)
		}
	}
	dc, ok := tr.Find("dc")
	if !ok || dc.IsLeaf() || dc.Length != 0.03 {
		t.Fatalf("dc = %+v, %v", dc, ok)
	}
	if dc.parent == nil || dc.parent.Name != "wild" {
		t.Fatal("parent links wrong")
	}
	if tr.Root.parent != nil {
		t.Fatal("root must have nil parent")
	}
	size := 0
	tr.Root.Walk(func(*Node) bool { size++; return true })
	if size != 9 {
		t.Fatalf("size = %d", size)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"(",
		"(a,b;",
		"(a,)",
		"(a,b):x;",
		"(a,b))c;",
		"(a,b)c;junk",
	}
	for i, src := range cases {
		if _, err := ParseNewick("x", src); !errors.Is(err, ErrParse) {
			t.Errorf("case %d (%q): err = %v", i, src, err)
		}
	}
	// Valid minimal inputs.
	for _, src := range []string{"a;", "(a,b);", "(a:1,b:2)r:0.5;", "a"} {
		if _, err := ParseNewick("x", src); err != nil {
			t.Errorf("%q rejected: %v", src, err)
		}
	}
}

func TestNewickRoundTrip(t *testing.T) {
	tr := tree(t)
	out := tr.Newick()
	tr2, err := ParseNewick("again", out)
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, out)
	}
	if tr2.Newick() != out {
		t.Fatalf("round trip unstable:\n%s\n%s", out, tr2.Newick())
	}
	a, b := tr.Root.Leaves(), tr2.Root.Leaves()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("leaf sets differ after round trip")
		}
	}
}

func TestLCA(t *testing.T) {
	tr := tree(t)
	tests := []struct {
		names []string
		want  string
	}{
		{[]string{"duck", "chicken"}, "dc"},
		{[]string{"goose", "duck"}, "wild"},
		{[]string{"goose", "human1"}, "root"},
		{[]string{"duck", "chicken", "goose"}, "wild"},
		{[]string{"human1", "human2"}, "hu"},
		{[]string{"duck"}, "duck"},
	}
	for _, tc := range tests {
		n, err := tr.LCA(tc.names...)
		if err != nil {
			t.Fatalf("LCA(%v): %v", tc.names, err)
		}
		if n.Name != tc.want {
			t.Errorf("LCA(%v) = %q, want %q", tc.names, n.Name, tc.want)
		}
	}
	if _, err := tr.LCA("duck", "ghost"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("ghost: err = %v", err)
	}
	if _, err := tr.LCA(); !errors.Is(err, ErrNoNode) {
		t.Fatalf("empty: err = %v", err)
	}
}

func TestClade(t *testing.T) {
	tr := tree(t)
	c, err := tr.Clade("duck", "chicken")
	if err != nil {
		t.Fatal(err)
	}
	if c.Root.Name != "dc" {
		t.Fatalf("clade root = %q", c.Root.Name)
	}
	if strings.Join(c.Leaves, "|") != "chicken|duck" {
		t.Fatalf("clade leaves = %q", c.Leaves)
	}
	// Clade spanned by leaves in different subtrees includes extras.
	c, _ = tr.Clade("goose", "chicken")
	if c.Root.Name != "wild" || len(c.Leaves) != 3 {
		t.Fatalf("clade = %+v", c)
	}
}

func TestDepthAndPathLength(t *testing.T) {
	tr := tree(t)
	d, err := tr.Depth("duck")
	if err != nil || d != 3 {
		t.Fatalf("Depth(duck) = %d, %v", d, err)
	}
	d, _ = tr.Depth("root")
	if d != 0 {
		t.Fatalf("Depth(root) = %d", d)
	}
	// duck -> dc (0.08) -> wild (0.03); chicken -> dc (0.09).
	pl, err := tr.PathLength("duck", "chicken")
	if err != nil || !close(pl, 0.17) {
		t.Fatalf("PathLength(duck,chicken) = %v, %v", pl, err)
	}
	pl, _ = tr.PathLength("duck", "goose")
	if !close(pl, 0.08+0.03+0.12) {
		t.Fatalf("PathLength(duck,goose) = %v", pl)
	}
	pl, _ = tr.PathLength("duck", "duck")
	if pl != 0 {
		t.Fatalf("self path length = %v", pl)
	}
	if _, err := tr.PathLength("duck", "ghost"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("ghost: err = %v", err)
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestWalkEarlyStop(t *testing.T) {
	tr := tree(t)
	count := 0
	tr.Root.Walk(func(*Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("visited %d, want 3", count)
	}
}

// TestQuickRoundTripGeneratedTrees builds random binary trees, serialises
// and reparses them, and checks leaf-set identity.
func TestQuickRoundTripGeneratedTrees(t *testing.T) {
	var build func(prefix string, depth int, shape []byte) *Node
	build = func(prefix string, depth int, shape []byte) *Node {
		if depth == 0 || len(shape) == 0 || shape[0]%3 == 0 {
			return &Node{Name: "L" + prefix, Length: float64(len(prefix)%5) / 10}
		}
		left := build(prefix+"0", depth-1, shape[1:])
		right := build(prefix+"1", depth-1, shape[1:])
		return &Node{Name: "", Length: 0.1, Children: []*Node{left, right}}
	}
	check := func(shape []byte, depthRaw uint8) bool {
		depth := int(depthRaw%4) + 1
		root := build("r", depth, shape)
		setParents(root, nil)
		tr := &Tree{ID: "gen", Root: root}
		out := tr.Newick()
		tr2, err := ParseNewick("gen2", out)
		if err != nil {
			return false
		}
		a, b := tr.Root.Leaves(), tr2.Root.Leaves()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		// LCA of all leaves is the root.
		if len(a) >= 2 {
			lca, err := tr2.LCA(a...)
			if err != nil || lca != tr2.Root {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Depth returns the number of edges from the root to the named node.
func (t *Tree) Depth(name string) (int, error) {
	n, ok := t.Find(name)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoNode, name)
	}
	d := 0
	for n.parent != nil {
		n = n.parent
		d++
	}
	return d, nil
}

// PathLength returns the sum of branch lengths between two named nodes.
func (t *Tree) PathLength(a, b string) (float64, error) {
	na, ok := t.Find(a)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoNode, a)
	}
	nb, ok := t.Find(b)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoNode, b)
	}
	anc := lca2(na, nb)
	if anc == nil {
		return 0, ErrNoLCA
	}
	sum := 0.0
	for n := na; n != anc; n = n.parent {
		sum += n.Length
	}
	for n := nb; n != anc; n = n.parent {
		sum += n.Length
	}
	return sum, nil
}
