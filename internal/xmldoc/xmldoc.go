// Package xmldoc provides the XML document model underlying Graphitti's
// annotation contents.
//
// The paper stores each annotation content as "an XML document whose
// elements consist of Dublin core attributes and other user-defined tags",
// and the a-graph "connects nodes of the XML annotation trees" to index and
// ontology nodes. The model here is therefore a DOM whose nodes carry
// stable numeric IDs so that external structures (the a-graph, the keyword
// index) can reference individual elements.
package xmldoc

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
)

// Kind discriminates node types.
type Kind uint8

const (
	// ElementNode is a tagged element; it may carry attributes and children.
	ElementNode Kind = iota
	// TextNode is character data; Value holds the text.
	TextNode
	// CommentNode is an XML comment; Value holds the comment body.
	CommentNode
)

func (k Kind) String() string {
	switch k {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// ErrNoRoot is returned when parsing input that contains no element.
var ErrNoRoot = errors.New("xmldoc: document has no root element")

// ErrForeignNode is returned when a node from another document is supplied.
var ErrForeignNode = errors.New("xmldoc: node belongs to a different document")

// Attr is a name/value attribute pair on an element.
type Attr struct {
	Name  string
	Value string
}

// Node is a single DOM node. Nodes are created through a Document and carry
// an ID that is unique within it.
type Node struct {
	ID       uint64
	Kind     Kind
	Name     string // element name (ElementNode only)
	Value    string // character data (TextNode, CommentNode)
	Attrs    []Attr
	Parent   *Node
	Children []*Node
	doc      *Document
}

// Document owns a tree of nodes and assigns their IDs.
type Document struct {
	Root *Node
	// nodes holds every node the document ever created, in ID order: IDs
	// are assigned 1..n and never removed, so node ID i is nodes[i-1].
	nodes []*Node
}

// NewDocument returns an empty document with a root element of the given
// name.
func NewDocument(rootName string) *Document {
	d := &Document{}
	d.Root = d.newNode(ElementNode)
	d.Root.Name = rootName
	return d
}

func (d *Document) newNode(kind Kind) *Node {
	n := &Node{ID: uint64(len(d.nodes)) + 1, Kind: kind, doc: d}
	d.nodes = append(d.nodes, n)
	return n
}

// NodeByID returns the node with the given ID, if it exists in this
// document.
func (d *Document) NodeByID(id uint64) (*Node, bool) {
	if id == 0 || id > uint64(len(d.nodes)) {
		return nil, false
	}
	return d.nodes[id-1], true
}

// Len reports the number of nodes in the document.
func (d *Document) Len() int { return len(d.nodes) }

// CreateElement returns a new, unattached element node.
func (d *Document) CreateElement(name string) *Node {
	n := d.newNode(ElementNode)
	n.Name = name
	return n
}

// CreateText returns a new, unattached text node.
func (d *Document) CreateText(text string) *Node {
	n := d.newNode(TextNode)
	n.Value = text
	return n
}

// CreateComment returns a new, unattached comment node.
func (d *Document) CreateComment(text string) *Node {
	n := d.newNode(CommentNode)
	n.Value = text
	return n
}

// AppendChild attaches child as the last child of parent. Both nodes must
// belong to this document and the child must be detached.
func (d *Document) AppendChild(parent, child *Node) error {
	if parent.doc != d || child.doc != d {
		return ErrForeignNode
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
func (d *Document) AddElement(parent *Node, name string) *Node {
	n := d.CreateElement(name)
	// Append cannot fail: n is fresh and both nodes belong to d.
	_ = d.AppendChild(parent, n)
	return n
}

// AddText creates a text node under parent and returns it.
func (d *Document) AddText(parent *Node, text string) *Node {
	n := d.CreateText(text)
	_ = d.AppendChild(parent, n)
	return n
}

// AddElementText is the common "leaf element with text content" helper: it
// creates <name>text</name> under parent and returns the element.
func (d *Document) AddElementText(parent *Node, name, text string) *Node {
	e := d.AddElement(parent, name)
	d.AddText(e, text)
	return e
}

// SetAttr sets (or replaces) an attribute on an element node.
func (n *Node) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{name, value})
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Text returns the concatenation of all text content in the subtree rooted
// at n, in document order.
func (n *Node) Text() string {
	var sb strings.Builder
	n.visitText(&sb)
	return sb.String()
}

func (n *Node) visitText(sb *strings.Builder) {
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
func (n *Node) ChildElements(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode && (name == "" || c.Name == name) {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildElement returns the first element child named name, or nil.
func (n *Node) FirstChildElement(name string) *Node {
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name == name {
			return c
		}
	}
	return nil
}

// Descendants visits every node in the subtree rooted at n (excluding n) in
// document order until fn returns false.
func (n *Node) Descendants(fn func(*Node) bool) {
	n.walkChildren(fn)
}

func (n *Node) walkChildren(fn func(*Node) bool) bool {
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
func (n *Node) Path() string {
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
func (n *Node) Document() *Document { return n.doc }

// Parse reads an XML document from r.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	d := &Document{}
	var stack []*Node
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

// ParseString parses an XML document from a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// WriteTo serialises the document to w with two-space indentation.
func (d *Document) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(d.AppendTo(nil))
	return int64(n), err
}

// String returns the serialised document.
func (d *Document) String() string {
	return string(d.AppendTo(nil))
}

// AppendTo appends the serialised document (two-space indentation, one
// node per line except under mixed content) to dst and returns the
// extended buffer — the one serializer behind String and WriteTo, for
// callers that own a buffer.
func (d *Document) AppendTo(dst []byte) []byte {
	return appendNode(dst, d.Root, 0)
}

func appendIndent(dst []byte, depth int) []byte {
	const spaces = "                                                                "
	for n := 2 * depth; n > 0; n -= len(spaces) {
		dst = append(dst, spaces[:min(n, len(spaces))]...)
	}
	return dst
}

// appendNode serialises n on lines of its own: an element with only
// element and comment children gets a line per child, anything else —
// text, a comment, an empty element, an element with a text child — is
// one line. Elements with text children are rendered inline because
// injecting indentation inside mixed content would alter the text.
func appendNode(dst []byte, n *Node, depth int) []byte {
	dst = appendIndent(dst, depth)
	if n.Kind == ElementNode && len(n.Children) > 0 && !n.hasTextChild() {
		dst = appendOpenTag(dst, n, false)
		dst = append(dst, '\n')
		for _, c := range n.Children {
			dst = appendNode(dst, c, depth+1)
		}
		dst = appendIndent(dst, depth)
		dst = appendCloseTag(dst, n)
	} else {
		dst = appendInline(dst, n)
	}
	return append(dst, '\n')
}

func (n *Node) hasTextChild() bool {
	for _, c := range n.Children {
		if c.Kind == TextNode {
			return true
		}
	}
	return false
}

func appendOpenTag(dst []byte, n *Node, selfClose bool) []byte {
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

func appendCloseTag(dst []byte, n *Node) []byte {
	dst = append(dst, "</"...)
	dst = append(dst, n.Name...)
	return append(dst, '>')
}

// appendInline serialises the subtree with no added whitespace.
func appendInline(dst []byte, n *Node) []byte {
	switch n.Kind {
	case TextNode:
		dst = appendEscaped(dst, n.Value)
	case CommentNode:
		dst = append(dst, "<!--"...)
		dst = append(dst, n.Value...)
		dst = append(dst, "-->"...)
	case ElementNode:
		if len(n.Children) == 0 {
			return appendOpenTag(dst, n, true)
		}
		dst = appendOpenTag(dst, n, false)
		for _, c := range n.Children {
			dst = appendInline(dst, c)
		}
		dst = appendCloseTag(dst, n)
	}
	return dst
}

// appendEscaped appends s with the five XML special characters replaced
// by their entities and every byte that is not part of a valid UTF-8
// sequence replaced by U+FFFD. Runs of bytes needing neither are copied
// whole.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		var esc string
		width := 1
		switch c := s[i]; {
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case c == '&':
			esc = "&amp;"
		case c == '"':
			esc = "&quot;"
		case c == '\'':
			esc = "&apos;"
		case c < utf8.RuneSelf:
			i++
			continue
		default:
			var r rune
			if r, width = utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || width != 1 {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, esc...)
		i += width
		start = i
	}
	return append(dst, s[start:]...)
}

// Equal reports whether two documents have the same structure and content,
// ignoring node IDs.
func Equal(a, b *Document) bool {
	return nodeEqual(a.Root, b.Root)
}

func nodeEqual(a, b *Node) bool {
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
		if !nodeEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Keywords returns the distinct lower-cased word tokens appearing in the
// document's text content and attribute values, sorted. Used by the
// annotation store's keyword index (ablation A6), which calls it on every
// commit and delete: the tokens are gathered in a stack buffer and only
// the distinct ones are copied out. A token may share memory with the
// text it was cut from.
func (d *Document) Keywords() []string {
	var buf [64]string
	words := d.Root.appendKeywords(buf[:0])
	slices.Sort(words)
	return slices.Clone(slices.Compact(words))
}

func (n *Node) appendKeywords(dst []string) []string {
	if n.Kind == TextNode {
		dst = appendTokens(dst, n.Value)
	}
	for _, a := range n.Attrs {
		dst = appendTokens(dst, a.Value)
	}
	for _, c := range n.Children {
		dst = c.appendKeywords(dst)
	}
	return dst
}

// Tokenize splits s into lower-cased word tokens. Letters, digits, '.', '-'
// and '_' are word characters (so terms like "protein.TP53" survive as one
// token); everything else separates tokens.
func Tokenize(s string) []string { return appendTokens(nil, s) }

// appendTokens appends s's tokens to dst. Word characters are ASCII, so a
// token is a substring of s, copied only when it has to be lower-cased.
func appendTokens(dst []string, s string) []string {
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && isWordByte(s[i]) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, strings.ToLower(s[start:i]))
			start = -1
		}
	}
	return dst
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '.' || c == '-' || c == '_'
}
