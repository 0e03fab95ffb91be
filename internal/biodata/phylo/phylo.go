// Package phylo models phylogenetic trees, one of the data types in the
// paper's Avian-Influenza demonstration study ("phylogenetic trees").
//
// Trees parse from and serialise to Newick format. Annotation marks on a
// tree are clades, each carrying its sorted leaf-name set so that a clade
// mark survives re-serialisation.
package phylo

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Errors reported by tree operations.
var (
	ErrParse  = errors.New("phylo: bad newick")
	ErrNoNode = errors.New("phylo: no such node")
	ErrNoLCA  = errors.New("phylo: nodes have no common ancestor")
)

// Node is a node of a phylogenetic tree.
type Node struct {
	// Name is the taxon label (often empty for internal nodes).
	Name string
	// Length is the branch length to the parent (0 when absent).
	Length float64
	// Children are the node's subtrees (empty for leaves).
	Children []*Node

	parent *Node
}

// Tree is a rooted phylogenetic tree.
type Tree struct {
	// ID names the tree (e.g. "H5N1-HA-tree").
	ID   string
	Root *Node
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Walk visits the subtree rooted at n in pre-order until fn returns false.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// Leaves returns the leaf names of the subtree at n, sorted.
func (n *Node) Leaves() []string {
	var out []string
	n.Walk(func(x *Node) bool {
		if x.IsLeaf() {
			out = append(out, x.Name)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// NumLeaves returns the number of leaves in the tree.
func (t *Tree) NumLeaves() int { return len(t.Root.Leaves()) }

// Find returns the first node with the given name in pre-order.
func (t *Tree) Find(name string) (*Node, bool) {
	var found *Node
	t.Root.Walk(func(n *Node) bool {
		if n.Name == name {
			found = n
			return false
		}
		return true
	})
	return found, found != nil
}

// LCA returns the lowest common ancestor of the named leaves/nodes.
func (t *Tree) LCA(names ...string) (*Node, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("%w: no names", ErrNoNode)
	}
	var cur *Node
	for i, name := range names {
		n, ok := t.Find(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoNode, name)
		}
		if i == 0 {
			cur = n
			continue
		}
		cur = lca2(cur, n)
		if cur == nil {
			return nil, ErrNoLCA
		}
	}
	return cur, nil
}

func lca2(a, b *Node) *Node {
	depth := func(n *Node) int {
		d := 0
		for n.parent != nil {
			n = n.parent
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	for da > db {
		a = a.parent
		da--
	}
	for db > da {
		b = b.parent
		db--
	}
	for a != b {
		a, b = a.parent, b.parent
		if a == nil || b == nil {
			return nil
		}
	}
	return a
}

// Clade is an annotation mark on a tree: the subtree rooted at the LCA of
// its leaf set.
type Clade struct {
	TreeID string
	Root   *Node
	Leaves []string // sorted
}

// Clade returns the clade mark spanned by the named leaves: the full
// subtree under their LCA (which may include additional leaves).
func (t *Tree) Clade(leafNames ...string) (*Clade, error) {
	root, err := t.LCA(leafNames...)
	if err != nil {
		return nil, err
	}
	return &Clade{TreeID: t.ID, Root: root, Leaves: root.Leaves()}, nil
}

// ParseNewick parses a Newick tree, e.g. "((A:0.1,B:0.2)AB:0.05,C):0;".
func ParseNewick(id, src string) (*Tree, error) {
	p := &newickParser{src: src}
	root, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ';' {
		p.pos++
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("%w: trailing input at %d", ErrParse, p.pos)
	}
	setParents(root, nil)
	return &Tree{ID: id, Root: root}, nil
}

func setParents(n *Node, parent *Node) {
	n.parent = parent
	for _, c := range n.Children {
		setParents(c, n)
	}
}

type newickParser struct {
	src string
	pos int
}

func (p *newickParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *newickParser) parseNode() (*Node, error) {
	p.skipSpace()
	n := &Node{}
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		for {
			child, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("%w: unterminated group", ErrParse)
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return nil, fmt.Errorf("%w: expected ',' or ')' at %d", ErrParse, p.pos)
		}
	}
	// Optional label.
	n.Name = p.parseLabel()
	// Optional branch length.
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ':' {
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && (isDigit(p.src[p.pos]) || p.src[p.pos] == '.' ||
			p.src[p.pos] == '-' || p.src[p.pos] == '+' || p.src[p.pos] == 'e' || p.src[p.pos] == 'E') {
			p.pos++
		}
		f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad branch length at %d", ErrParse, start)
		}
		n.Length = f
	}
	if n.Name == "" && len(n.Children) == 0 {
		return nil, fmt.Errorf("%w: empty node at %d", ErrParse, p.pos)
	}
	return n, nil
}

func (p *newickParser) parseLabel() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ',' || c == ')' || c == '(' || c == ':' || c == ';' ||
			c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Newick serialises the tree to Newick format (with branch lengths when
// non-zero).
func (t *Tree) Newick() string {
	var sb strings.Builder
	writeNewick(&sb, t.Root)
	sb.WriteByte(';')
	return sb.String()
}

func writeNewick(sb *strings.Builder, n *Node) {
	if len(n.Children) > 0 {
		sb.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeNewick(sb, c)
		}
		sb.WriteByte(')')
	}
	sb.WriteString(n.Name)
	if n.Length != 0 {
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(n.Length, 'g', -1, 64))
	}
}
