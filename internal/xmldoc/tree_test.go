package xmldoc

// The pointer DOM this package used to be — one heap node per element,
// text and comment, child and attribute slices per node — kept as the
// oracle the flat slab is compared against (flat_test.go, and
// content_test.go from outside the package, hence the exported names).
// Only the names changed: Node → TreeNode, Document → TreeDocument,
// NewDocument → NewTreeDocument, Parse → ParseTree, Equal → TreeEqual.
// appendIndent, appendEscaped and AppendTokens are shared with the slab's
// serializer; they did not change.

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// errForeignNode is returned when a node from another document is supplied.
var errForeignNode = errors.New("xmldoc: node belongs to a different document")

// TreeNode is a single DOM node. Nodes are created through a Document and carry
// an ID that is unique within it.
type TreeNode struct {
	ID       uint64
	Kind     Kind
	Name     string // element name (ElementNode only)
	Value    string // character data (TextNode, CommentNode)
	Attrs    []Attr
	Parent   *TreeNode
	Children []*TreeNode
	doc      *TreeDocument
}

// TreeDocument owns a tree of nodes and assigns their IDs.
type TreeDocument struct {
	Root *TreeNode
	// nodes holds every node the document ever created, in ID order: IDs
	// are assigned 1..n and never removed, so node ID i is nodes[i-1].
	nodes []*TreeNode
}

// NewTreeDocument returns an empty document with a root element of the given
// name.
func NewTreeDocument(rootName string) *TreeDocument {
	d := &TreeDocument{}
	d.Root = d.newNode(ElementNode)
	d.Root.Name = rootName
	return d
}

func (d *TreeDocument) newNode(kind Kind) *TreeNode {
	n := &TreeNode{ID: uint64(len(d.nodes)) + 1, Kind: kind, doc: d}
	d.nodes = append(d.nodes, n)
	return n
}

// NodeByID returns the node with the given ID, if it exists in this
// document.
func (d *TreeDocument) NodeByID(id uint64) (*TreeNode, bool) {
	if id == 0 || id > uint64(len(d.nodes)) {
		return nil, false
	}
	return d.nodes[id-1], true
}

// Len reports the number of nodes in the document.
func (d *TreeDocument) Len() int { return len(d.nodes) }

// CreateElement returns a new, unattached element node.
func (d *TreeDocument) CreateElement(name string) *TreeNode {
	n := d.newNode(ElementNode)
	n.Name = name
	return n
}

// CreateText returns a new, unattached text node.
func (d *TreeDocument) CreateText(text string) *TreeNode {
	n := d.newNode(TextNode)
	n.Value = text
	return n
}

// CreateComment returns a new, unattached comment node.
func (d *TreeDocument) CreateComment(text string) *TreeNode {
	n := d.newNode(CommentNode)
	n.Value = text
	return n
}

// AppendChild attaches child as the last child of parent. Both nodes must
// belong to this document and the child must be detached.
func (d *TreeDocument) AppendChild(parent, child *TreeNode) error {
	if parent.doc != d || child.doc != d {
		return errForeignNode
	}
	if child.Parent != nil {
		return fmt.Errorf("xmldoc: node %d already attached", child.ID)
	}
	if child == parent {
		return errors.New("xmldoc: cannot append a node to itself")
	}
	child.Parent = parent
	parent.Children = append(parent.Children, child)
	return nil
}

// AddElement creates an element, appends it under parent and returns it.
func (d *TreeDocument) AddElement(parent *TreeNode, name string) *TreeNode {
	n := d.CreateElement(name)
	// Append cannot fail: n is fresh and both nodes belong to d.
	_ = d.AppendChild(parent, n)
	return n
}

// AddText creates a text node under parent and returns it.
func (d *TreeDocument) AddText(parent *TreeNode, text string) *TreeNode {
	n := d.CreateText(text)
	_ = d.AppendChild(parent, n)
	return n
}

// AddElementText is the common "leaf element with text content" helper: it
// creates <name>text</name> under parent and returns the element.
func (d *TreeDocument) AddElementText(parent *TreeNode, name, text string) *TreeNode {
	e := d.AddElement(parent, name)
	d.AddText(e, text)
	return e
}

// SetAttr sets (or replaces) an attribute on an element node.
func (n *TreeNode) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{name, value})
}

// Attr returns the value of the named attribute and whether it is present.
func (n *TreeNode) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Text returns the concatenation of all text content in the subtree rooted
// at n, in document order.
func (n *TreeNode) Text() string {
	var sb strings.Builder
	n.visitText(&sb)
	return sb.String()
}

func (n *TreeNode) visitText(sb *strings.Builder) {
	if n.Kind == TextNode {
		sb.WriteString(n.Value)
		return
	}
	for _, c := range n.Children {
		c.visitText(sb)
	}
}

// ChildElements returns the element children of n, in order. If name is
// non-empty only elements with that name are returned.
func (n *TreeNode) ChildElements(name string) []*TreeNode {
	var out []*TreeNode
	for _, c := range n.Children {
		if c.Kind == ElementNode && (name == "" || c.Name == name) {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildElement returns the first element child named name, or nil.
func (n *TreeNode) FirstChildElement(name string) *TreeNode {
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name == name {
			return c
		}
	}
	return nil
}

// Descendants visits every node in the subtree rooted at n (excluding n) in
// document order until fn returns false.
func (n *TreeNode) Descendants(fn func(*TreeNode) bool) {
	n.walkChildren(fn)
}

func (n *TreeNode) walkChildren(fn func(*TreeNode) bool) bool {
	for _, c := range n.Children {
		if !fn(c) {
			return false
		}
		if !c.walkChildren(fn) {
			return false
		}
	}
	return true
}

// Path returns a simple absolute location path for the node, e.g.
// "/annotation/content[2]". Positional predicates count same-named
// siblings.
func (n *TreeNode) Path() string {
	if n.Parent == nil {
		return "/" + n.Name
	}
	idx, count := 0, 0
	for _, sib := range n.Parent.Children {
		if sib.Kind == ElementNode && sib.Name == n.Name {
			count++
			if sib == n {
				idx = count
			}
		}
	}
	step := n.Name
	if n.Kind == TextNode {
		step = "text()"
	}
	if count > 1 {
		return fmt.Sprintf("%s/%s[%d]", n.Parent.Path(), step, idx)
	}
	return n.Parent.Path() + "/" + step
}

// Document returns the document owning this node.
func (n *TreeNode) Document() *TreeDocument { return n.doc }

// ParseTree reads an XML document from r.
func ParseTree(r io.Reader) (*TreeDocument, error) {
	dec := xml.NewDecoder(r)
	d := &TreeDocument{}
	var stack []*TreeNode
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := d.newNode(ElementNode)
			n.Name = t.Name.Local
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.Attrs = append(n.Attrs, Attr{a.Name.Local, a.Value})
			}
			if len(stack) == 0 {
				if d.Root != nil {
					return nil, errors.New("xmldoc: multiple root elements")
				}
				d.Root = n
			} else {
				parent := stack[len(stack)-1]
				n.Parent = parent
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("xmldoc: unbalanced end element")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue // whitespace outside the root
			}
			text := string(t)
			if strings.TrimSpace(text) == "" {
				continue
			}
			n := d.newNode(TextNode)
			n.Value = text
			parent := stack[len(stack)-1]
			n.Parent = parent
			parent.Children = append(parent.Children, n)
		case xml.Comment:
			if len(stack) == 0 {
				continue
			}
			n := d.newNode(CommentNode)
			n.Value = string(t)
			parent := stack[len(stack)-1]
			n.Parent = parent
			parent.Children = append(parent.Children, n)
		}
	}
	if d.Root == nil {
		return nil, ErrNoRoot
	}
	return d, nil
}

// ParseTreeString parses an XML document from a string.
func ParseTreeString(s string) (*TreeDocument, error) {
	return ParseTree(strings.NewReader(s))
}

// WriteTo serialises the document to w with two-space indentation.
func (d *TreeDocument) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(d.AppendTo(nil))
	return int64(n), err
}

// String returns the serialised document.
func (d *TreeDocument) String() string {
	return string(d.AppendTo(nil))
}

// AppendTo appends the serialised document (two-space indentation, one
// node per line except under mixed content) to dst and returns the
// extended buffer — the one serializer behind String and WriteTo, for
// callers that own a buffer.
func (d *TreeDocument) AppendTo(dst []byte) []byte {
	return treeAppendNode(dst, d.Root, 0)
}

// appendNode serialises n on lines of its own: an element with only
// element and comment children gets a line per child, anything else —
// text, a comment, an empty element, an element with a text child — is
// one line. Elements with text children are rendered inline because
// injecting indentation inside mixed content would alter the text.
func treeAppendNode(dst []byte, n *TreeNode, depth int) []byte {
	dst = appendIndent(dst, depth)
	if n.Kind == ElementNode && len(n.Children) > 0 && !n.hasTextChild() {
		dst = treeAppendOpenTag(dst, n, false)
		dst = append(dst, '\n')
		for _, c := range n.Children {
			dst = treeAppendNode(dst, c, depth+1)
		}
		dst = appendIndent(dst, depth)
		dst = treeAppendCloseTag(dst, n)
	} else {
		dst = treeAppendInline(dst, n)
	}
	return append(dst, '\n')
}

func (n *TreeNode) hasTextChild() bool {
	for _, c := range n.Children {
		if c.Kind == TextNode {
			return true
		}
	}
	return false
}

func treeAppendOpenTag(dst []byte, n *TreeNode, selfClose bool) []byte {
	dst = append(dst, '<')
	dst = append(dst, n.Name...)
	for _, a := range n.Attrs {
		dst = append(dst, ' ')
		dst = append(dst, a.Name...)
		dst = append(dst, `="`...)
		dst = appendEscaped(dst, a.Value)
		dst = append(dst, '"')
	}
	if selfClose {
		return append(dst, "/>"...)
	}
	return append(dst, '>')
}

func treeAppendCloseTag(dst []byte, n *TreeNode) []byte {
	dst = append(dst, "</"...)
	dst = append(dst, n.Name...)
	return append(dst, '>')
}

// appendInline serialises the subtree with no added whitespace.
func treeAppendInline(dst []byte, n *TreeNode) []byte {
	switch n.Kind {
	case TextNode:
		dst = appendEscaped(dst, n.Value)
	case CommentNode:
		dst = append(dst, "<!--"...)
		dst = append(dst, n.Value...)
		dst = append(dst, "-->"...)
	case ElementNode:
		if len(n.Children) == 0 {
			return treeAppendOpenTag(dst, n, true)
		}
		dst = treeAppendOpenTag(dst, n, false)
		for _, c := range n.Children {
			dst = treeAppendInline(dst, c)
		}
		dst = treeAppendCloseTag(dst, n)
	}
	return dst
}

// TreeEqual reports whether two documents have the same structure and content,
// ignoring node IDs.
func TreeEqual(a, b *TreeDocument) bool {
	return treeNodeEqual(a.Root, b.Root)
}

func treeNodeEqual(a, b *TreeNode) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	as := append([]Attr(nil), a.Attrs...)
	bs := append([]Attr(nil), b.Attrs...)
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !treeNodeEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// tokens returns the distinct tokens, sorted, of the document's text
// content and attribute values, as tokens does of a flat document.
func (d *TreeDocument) tokens() []string {
	words := d.Root.appendTokens(nil)
	slices.Sort(words)
	return slices.Compact(words)
}

func (n *TreeNode) appendTokens(dst []string) []string {
	if n.Kind == TextNode {
		dst = AppendTokens(dst, n.Value)
	}
	for _, a := range n.Attrs {
		dst = AppendTokens(dst, a.Value)
	}
	for _, c := range n.Children {
		dst = c.appendTokens(dst)
	}
	return dst
}
