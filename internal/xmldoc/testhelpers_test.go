package xmldoc

import (
	"slices"
	"sort"
	"strconv"
)

// SameShape reports whether two sealed documents share one interned shape:
// the same nodes, names and attributes, whatever their values.
func SameShape(a, b *Document) bool {
	return a.sh == b.sh && a.sh.b == nil
}

// AddText appends a text node as the last child of parent and returns it.
func (d *Document) AddText(parent Node, text string) Node {
	return Node{d: d, i: d.add(d.own(parent), TextNode, text)}
}

// ID returns the node's ID within its document: its table index plus one.
func (n Node) ID() uint64 { return uint64(n.i) + 1 }

// Attr returns the value of the named attribute and whether it is present.
func (n Node) Attr(name string) (string, bool) {
	if n.attr != 0 {
		return "", false
	}
	sh := n.d.sh
	lo, hi := sh.attrs(n.i)
	for s := lo; s < hi; s++ {
		if sh.name(sh.slots[s]) == name {
			return n.d.value(s), true
		}
	}
	return "", false
}

// ChildElements returns the element children of n, in order. If name is
// non-empty only elements with that name are returned.
func (n Node) ChildElements(name string) []Node {
	var out []Node
	for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
		if c.Kind() == ElementNode && (name == "" || c.Name() == name) {
			out = append(out, c)
		}
	}
	return out
}

// Path returns a simple absolute location path for the node, e.g.
// "/annotation/content[2]" or "/annotation/@id". Positional predicates
// count same-named siblings.
func (n Node) Path() string {
	p := n.Parent()
	if !p.Valid() {
		return "/" + n.Name()
	}
	if n.attr != 0 {
		return p.Path() + "/@" + n.Name()
	}
	name := n.Name()
	idx, count := 0, 0
	for sib := p.FirstChild(); sib.Valid(); sib = sib.NextSibling() {
		if sib.Kind() == ElementNode && sib.Name() == name {
			count++
			if sib == n {
				idx = count
			}
		}
	}
	step := name
	if n.Kind() == TextNode {
		step = "text()"
	}
	if count > 1 {
		return p.Path() + "/" + step + "[" + strconv.Itoa(idx) + "]"
	}
	return p.Path() + "/" + step
}

// Equal reports whether two documents have the same structure and content,
// ignoring node IDs.
func Equal(a, b *Document) bool {
	return nodeEqual(a.Root, b.Root)
}

// Tokenize splits s into lower-cased word tokens. Letters, digits, '.', '-'
// and '_' are word characters (so terms like "protein.TP53" survive as one
// token); everything else separates tokens.
func Tokenize(s string) []string { return appendTokens(nil, s) }

func nodeEqual(a, b Node) bool {
	if a.Kind() != b.Kind() || a.Name() != b.Name() || a.Value() != b.Value() {
		return false
	}
	as, bs := a.Attrs(), b.Attrs()
	if len(as) != len(bs) {
		return false
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
	if !slices.Equal(as, bs) {
		return false
	}
	ca, cb := a.FirstChild(), b.FirstChild()
	for ; ca.Valid() && cb.Valid(); ca, cb = ca.NextSibling(), cb.NextSibling() {
		if !nodeEqual(ca, cb) {
			return false
		}
	}
	return !ca.Valid() && !cb.Valid()
}

// Attrs returns a copy of the element's attributes, in the order they were
// set.
func (n Node) Attrs() []Attr {
	var out []Attr
	for k := range n.NumAttrs() {
		out = append(out, n.AttrAt(k))
	}
	return out
}
