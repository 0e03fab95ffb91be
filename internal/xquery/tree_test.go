package xquery

// The evaluator this package had while xmldoc was a pointer DOM, kept as
// the oracle for the one that walks the flat slab (flat_test.go). The
// evaluation code is as it was, under tree-prefixed names; what it needs
// of the old DOM — the node struct, Parse, Text, Descendants — comes along
// as treeNode, since the DOM itself now lives in xmldoc's own test files.

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"graphitti/internal/xmldoc"
)

// treeNode is a single DOM node; IDs are assigned 1..n in creation order,
// which for a parsed document is document order.
type treeNode struct {
	ID       uint64
	Kind     xmldoc.Kind
	Name     string // element name (ElementNode only)
	Value    string // character data (TextNode, CommentNode)
	Attrs    []xmldoc.Attr
	Parent   *treeNode
	Children []*treeNode
}

// Text returns the concatenation of all text content in the subtree rooted
// at n, in document order.
func (n *treeNode) Text() string {
	var sb strings.Builder
	n.visitText(&sb)
	return sb.String()
}

func (n *treeNode) visitText(sb *strings.Builder) {
	if n.Kind == xmldoc.TextNode {
		sb.WriteString(n.Value)
		return
	}
	for _, c := range n.Children {
		c.visitText(sb)
	}
}

// Descendants visits every node in the subtree rooted at n (excluding n) in
// document order until fn returns false.
func (n *treeNode) Descendants(fn func(*treeNode) bool) {
	n.walkChildren(fn)
}

func (n *treeNode) walkChildren(fn func(*treeNode) bool) bool {
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

// parseTree reads an XML document from r and returns its root, and every
// node in ID order.
func parseTree(r io.Reader) (*treeNode, []*treeNode, error) {
	dec := xml.NewDecoder(r)
	var root *treeNode
	var nodes, stack []*treeNode
	newNode := func(kind xmldoc.Kind) *treeNode {
		n := &treeNode{ID: uint64(len(nodes)) + 1, Kind: kind}
		nodes = append(nodes, n)
		return n
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("xmldoc: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := newNode(xmldoc.ElementNode)
			n.Name = t.Name.Local
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.Attrs = append(n.Attrs, xmldoc.Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, nil, errors.New("xmldoc: multiple root elements")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				n.Parent = parent
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, nil, errors.New("xmldoc: unbalanced end element")
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
			n := newNode(xmldoc.TextNode)
			n.Value = text
			parent := stack[len(stack)-1]
			n.Parent = parent
			parent.Children = append(parent.Children, n)
		case xml.Comment:
			if len(stack) == 0 {
				continue
			}
			n := newNode(xmldoc.CommentNode)
			n.Value = string(t)
			parent := stack[len(stack)-1]
			n.Parent = parent
			parent.Children = append(parent.Children, n)
		}
	}
	if root == nil {
		return nil, nil, xmldoc.ErrNoRoot
	}
	return root, nodes, nil
}

// treeValue is the result of evaluating an expression.
type treeValue struct {
	Kind  ValueKind
	Nodes []*treeNode
	Str   string
	Num   float64
	Bool  bool
}

func treeNodeSet(ns []*treeNode) treeValue { return treeValue{Kind: NodeSetValue, Nodes: ns} }
func treeStr(s string) treeValue           { return treeValue{Kind: StringValue, Str: s} }
func treeNum(f float64) treeValue          { return treeValue{Kind: NumberValue, Num: f} }
func treeBoolean(b bool) treeValue         { return treeValue{Kind: BooleanValue, Bool: b} }

// AsBool converts the value to a boolean using XPath rules.
func (v treeValue) AsBool() bool {
	switch v.Kind {
	case NodeSetValue:
		return len(v.Nodes) > 0
	case StringValue:
		return len(v.Str) > 0
	case NumberValue:
		return v.Num != 0 && !math.IsNaN(v.Num)
	default:
		return v.Bool
	}
}

// AsString converts the value to a string using XPath rules (the string
// value of a node set is the string value of its first node).
func (v treeValue) AsString() string {
	switch v.Kind {
	case NodeSetValue:
		if len(v.Nodes) == 0 {
			return ""
		}
		return treeNodeString(v.Nodes[0])
	case StringValue:
		return v.Str
	case NumberValue:
		return formatNumber(v.Num)
	default:
		if v.Bool {
			return "true"
		}
		return "false"
	}
}

// AsNumber converts the value to a number using XPath rules.
func (v treeValue) AsNumber() float64 {
	switch v.Kind {
	case NodeSetValue, StringValue:
		s := strings.TrimSpace(v.AsString())
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case NumberValue:
		return v.Num
	default:
		if v.Bool {
			return 1
		}
		return 0
	}
}

// nodeString is the XPath string-value of a node.
func treeNodeString(n *treeNode) string {
	switch n.Kind {
	case xmldoc.TextNode, xmldoc.CommentNode:
		return n.Value
	default:
		return n.Text()
	}
}

type treeEvalCtx struct {
	node *treeNode
	pos  int // 1-based position in the current node list
	size int
}

// treeEval evaluates the query with the given root element as context.
func treeEval(q *Query, root *treeNode) (treeValue, error) {
	return treeEvalExpr(q.expr, treeEvalCtx{node: root, pos: 1, size: 1})
}

func treeEvalExpr(e Expr, ctx treeEvalCtx) (treeValue, error) {
	switch v := e.(type) {
	case NumberLit:
		return treeNum(float64(v)), nil
	case StringLit:
		return treeStr(string(v)), nil
	case *BinaryExpr:
		return treeEvalBinary(v, ctx)
	case *FuncCall:
		return treeEvalFunc(v, ctx)
	case *PathExpr:
		ns, err := treeEvalPath(v, ctx)
		if err != nil {
			return treeValue{}, err
		}
		return treeNodeSet(ns), nil
	default:
		return treeValue{}, fmt.Errorf("xquery: unknown expression %T", e)
	}
}

func treeEvalBinary(b *BinaryExpr, ctx treeEvalCtx) (treeValue, error) {
	switch b.Op {
	case "or":
		l, err := treeEvalExpr(b.L, ctx)
		if err != nil {
			return treeValue{}, err
		}
		if l.AsBool() {
			return treeBoolean(true), nil
		}
		r, err := treeEvalExpr(b.R, ctx)
		if err != nil {
			return treeValue{}, err
		}
		return treeBoolean(r.AsBool()), nil
	case "and":
		l, err := treeEvalExpr(b.L, ctx)
		if err != nil {
			return treeValue{}, err
		}
		if !l.AsBool() {
			return treeBoolean(false), nil
		}
		r, err := treeEvalExpr(b.R, ctx)
		if err != nil {
			return treeValue{}, err
		}
		return treeBoolean(r.AsBool()), nil
	}
	l, err := treeEvalExpr(b.L, ctx)
	if err != nil {
		return treeValue{}, err
	}
	r, err := treeEvalExpr(b.R, ctx)
	if err != nil {
		return treeValue{}, err
	}
	switch b.Op {
	case "+", "-":
		a, c := l.AsNumber(), r.AsNumber()
		if b.Op == "+" {
			return treeNum(a + c), nil
		}
		return treeNum(a - c), nil
	case "=", "!=", "<", "<=", ">", ">=":
		return treeBoolean(treeCompare(b.Op, l, r)), nil
	default:
		return treeValue{}, fmt.Errorf("xquery: unknown operator %q", b.Op)
	}
}

// compare implements XPath 1.0 comparison semantics, including the
// existential semantics of node-set comparisons.
func treeCompare(op string, l, r treeValue) bool {
	if l.Kind == NodeSetValue && r.Kind == NodeSetValue {
		for _, ln := range l.Nodes {
			for _, rn := range r.Nodes {
				if treeCmpAtoms(op, treeStr(treeNodeString(ln)), treeStr(treeNodeString(rn))) {
					return true
				}
			}
		}
		return false
	}
	if l.Kind == NodeSetValue {
		for _, ln := range l.Nodes {
			if treeCmpAtoms(op, treeStr(treeNodeString(ln)), r) {
				return true
			}
		}
		return false
	}
	if r.Kind == NodeSetValue {
		for _, rn := range r.Nodes {
			if treeCmpAtoms(op, l, treeStr(treeNodeString(rn))) {
				return true
			}
		}
		return false
	}
	return treeCmpAtoms(op, l, r)
}

func treeCmpAtoms(op string, l, r treeValue) bool {
	switch op {
	case "=", "!=":
		var eq bool
		switch {
		case l.Kind == BooleanValue || r.Kind == BooleanValue:
			eq = l.AsBool() == r.AsBool()
		case l.Kind == NumberValue || r.Kind == NumberValue:
			eq = l.AsNumber() == r.AsNumber()
		default:
			eq = l.AsString() == r.AsString()
		}
		if op == "=" {
			return eq
		}
		return !eq
	default:
		a, b := l.AsNumber(), r.AsNumber()
		switch op {
		case "<":
			return a < b
		case "<=":
			return a <= b
		case ">":
			return a > b
		default:
			return a >= b
		}
	}
}

func treeEvalPath(p *PathExpr, ctx treeEvalCtx) ([]*treeNode, error) {
	var current []*treeNode
	if p.Absolute {
		root := ctx.node
		for root.Parent != nil {
			root = root.Parent
		}
		if len(p.Steps) == 0 {
			return []*treeNode{root}, nil
		}
		// The context for the first absolute step is a virtual document
		// node whose only child is the root element; model it by running
		// the first step against the root's "self or children".
		first := p.Steps[0]
		var err error
		current, err = treeApplyStepFromDocument(first, root, ctx)
		if err != nil {
			return nil, err
		}
		for _, s := range p.Steps[1:] {
			current, err = treeApplyStepAll(s, current, ctx)
			if err != nil {
				return nil, err
			}
		}
		return current, nil
	}
	current = []*treeNode{ctx.node}
	var err error
	for _, s := range p.Steps {
		current, err = treeApplyStepAll(s, current, ctx)
		if err != nil {
			return nil, err
		}
	}
	return current, nil
}

// applyStepFromDocument runs the first step of an absolute path, where the
// conceptual context node is the document: /a matches the root element
// named a; //a matches any descendant-or-self element named a.
func treeApplyStepFromDocument(s Step, root *treeNode, outer treeEvalCtx) ([]*treeNode, error) {
	var candidates []*treeNode
	switch s.Axis {
	case AxisChild:
		candidates = treeMatchTest(s, []*treeNode{root})
	case AxisDescendant:
		all := []*treeNode{root}
		root.Descendants(func(n *treeNode) bool {
			all = append(all, n)
			return true
		})
		candidates = treeMatchTest(s, all)
	case AxisAttribute:
		candidates = nil // the document node has no attributes
	case AxisSelf, AxisParent:
		candidates = nil
	}
	return treeApplyPreds(s.Preds, candidates, outer)
}

func treeApplyStepAll(s Step, nodes []*treeNode, outer treeEvalCtx) ([]*treeNode, error) {
	var out []*treeNode
	seen := map[*treeNode]bool{}
	for _, n := range nodes {
		res, err := treeApplyStep(s, n, outer)
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	treeSortDocOrder(out)
	return out, nil
}

func treeApplyStep(s Step, n *treeNode, outer treeEvalCtx) ([]*treeNode, error) {
	var candidates []*treeNode
	switch s.Axis {
	case AxisChild:
		candidates = treeMatchTest(s, n.Children)
	case AxisDescendant:
		var all []*treeNode
		n.Descendants(func(d *treeNode) bool {
			all = append(all, d)
			return true
		})
		candidates = treeMatchTest(s, all)
	case AxisSelf:
		candidates = treeMatchTest(s, []*treeNode{n})
	case AxisParent:
		if n.Parent != nil {
			candidates = treeMatchTest(s, []*treeNode{n.Parent})
		}
	case AxisAttribute:
		// Attributes are surfaced as synthetic text nodes so that string
		// conversion and comparison work uniformly.
		for _, a := range n.Attrs {
			if s.Kind == TestAny || a.Name == s.Name {
				candidates = append(candidates, treeSyntheticAttrNode(n, a))
			}
		}
	}
	return treeApplyPreds(s.Preds, candidates, outer)
}

// syntheticAttrNode materialises an attribute as a detached text node.
// Its value is the attribute value. The node is not part of the document
// tree; Parent points at the owning element so ".." still works.
func treeSyntheticAttrNode(owner *treeNode, a xmldoc.Attr) *treeNode {
	return &treeNode{
		ID:     owner.ID, // attribute results map back to the owning element
		Kind:   xmldoc.TextNode,
		Name:   a.Name,
		Value:  a.Value,
		Parent: owner,
	}
}

func treeMatchTest(s Step, nodes []*treeNode) []*treeNode {
	var out []*treeNode
	for _, n := range nodes {
		switch s.Kind {
		case TestName:
			if n.Kind == xmldoc.ElementNode && n.Name == s.Name {
				out = append(out, n)
			}
		case TestAny:
			if n.Kind == xmldoc.ElementNode {
				out = append(out, n)
			}
		case TestText:
			if n.Kind == xmldoc.TextNode {
				out = append(out, n)
			}
		case TestNode:
			out = append(out, n)
		}
	}
	return out
}

func treeApplyPreds(preds []Expr, nodes []*treeNode, outer treeEvalCtx) ([]*treeNode, error) {
	cur := nodes
	for _, pred := range preds {
		var kept []*treeNode
		size := len(cur)
		for i, n := range cur {
			v, err := treeEvalExpr(pred, treeEvalCtx{node: n, pos: i + 1, size: size})
			if err != nil {
				return nil, err
			}
			// A numeric predicate is a position test.
			if v.Kind == NumberValue {
				if float64(i+1) == v.Num {
					kept = append(kept, n)
				}
				continue
			}
			if v.AsBool() {
				kept = append(kept, n)
			}
		}
		cur = kept
	}
	return cur, nil
}

// sortDocOrder sorts nodes by their document node ID, which xmldoc assigns
// in creation order (document order for parsed documents).
func treeSortDocOrder(ns []*treeNode) {
	sort.SliceStable(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
}

func treeEvalFunc(f *FuncCall, ctx treeEvalCtx) (treeValue, error) {
	argv := make([]treeValue, len(f.Args))
	for i, a := range f.Args {
		v, err := treeEvalExpr(a, ctx)
		if err != nil {
			return treeValue{}, err
		}
		argv[i] = v
	}
	switch f.Name {
	case "contains":
		return treeBoolean(strings.Contains(argv[0].AsString(), argv[1].AsString())), nil
	case "starts-with":
		return treeBoolean(strings.HasPrefix(argv[0].AsString(), argv[1].AsString())), nil
	case "count":
		if argv[0].Kind != NodeSetValue {
			return treeValue{}, fmt.Errorf("xquery: count() requires a node set")
		}
		return treeNum(float64(len(argv[0].Nodes))), nil
	case "position":
		return treeNum(float64(ctx.pos)), nil
	case "last":
		return treeNum(float64(ctx.size)), nil
	case "name":
		n := ctx.node
		if len(argv) == 1 {
			if argv[0].Kind != NodeSetValue || len(argv[0].Nodes) == 0 {
				return treeStr(""), nil
			}
			n = argv[0].Nodes[0]
		}
		return treeStr(n.Name), nil
	case "not":
		return treeBoolean(!argv[0].AsBool()), nil
	case "string":
		if len(argv) == 0 {
			return treeStr(treeNodeString(ctx.node)), nil
		}
		return treeStr(argv[0].AsString()), nil
	case "number":
		if len(argv) == 0 {
			return treeNum(treeValue{Kind: StringValue, Str: treeNodeString(ctx.node)}.AsNumber()), nil
		}
		return treeNum(argv[0].AsNumber()), nil
	case "true":
		return treeBoolean(true), nil
	case "false":
		return treeBoolean(false), nil
	case "concat":
		var sb strings.Builder
		for _, a := range argv {
			sb.WriteString(a.AsString())
		}
		return treeStr(sb.String()), nil
	case "string-length":
		if len(argv) == 0 {
			return treeNum(float64(len(treeNodeString(ctx.node)))), nil
		}
		return treeNum(float64(len(argv[0].AsString()))), nil
	case "normalize-space":
		s := ""
		if len(argv) == 0 {
			s = treeNodeString(ctx.node)
		} else {
			s = argv[0].AsString()
		}
		return treeStr(strings.Join(strings.Fields(s), " ")), nil
	case "substring-before":
		s, sep := argv[0].AsString(), argv[1].AsString()
		if i := strings.Index(s, sep); i >= 0 {
			return treeStr(s[:i]), nil
		}
		return treeStr(""), nil
	case "substring-after":
		s, sep := argv[0].AsString(), argv[1].AsString()
		if i := strings.Index(s, sep); i >= 0 {
			return treeStr(s[i+len(sep):]), nil
		}
		return treeStr(""), nil
	default:
		return treeValue{}, fmt.Errorf("xquery: unknown function %q", f.Name)
	}
}
