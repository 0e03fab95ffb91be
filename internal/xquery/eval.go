package xquery

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"graphitti/internal/xmldoc"
)

// ValueKind discriminates evaluation results.
type ValueKind uint8

// The four XPath 1.0 value types.
const (
	NodeSetValue ValueKind = iota
	StringValue
	NumberValue
	BooleanValue
)

// Value is the result of evaluating an expression.
type Value struct {
	Kind  ValueKind
	Nodes []xmldoc.Node
	Str   string
	Num   float64
	Bool  bool
}

func nodeSet(ns []xmldoc.Node) Value { return Value{Kind: NodeSetValue, Nodes: ns} }
func str(s string) Value             { return Value{Kind: StringValue, Str: s} }
func num(f float64) Value            { return Value{Kind: NumberValue, Num: f} }
func boolean(b bool) Value           { return Value{Kind: BooleanValue, Bool: b} }

// AsBool converts the value to a boolean using XPath rules.
func (v Value) AsBool() bool {
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
func (v Value) AsString() string {
	switch v.Kind {
	case NodeSetValue:
		if len(v.Nodes) == 0 {
			return ""
		}
		return nodeString(v.Nodes[0])
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
func (v Value) AsNumber() float64 {
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

func formatNumber(f float64) string {
	if f == math.Trunc(f) && !math.IsInf(f, 0) && !math.IsNaN(f) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// nodeString is the XPath string-value of a node.
func nodeString(n xmldoc.Node) string {
	switch n.Kind() {
	case xmldoc.TextNode, xmldoc.CommentNode:
		return n.Value()
	default:
		return n.Text()
	}
}

// Scratch is the working memory of an evaluation: one stack of node
// handles on which a path expression builds its node lists, step by step
// and predicate by predicate. The zero Scratch is ready to use. A caller
// that evaluates many documents in a row keeps one and evaluates through
// its methods: once the stack has grown to what the expression needs, no
// further evaluation allocates for node lists. A Scratch is not safe for
// concurrent use, and holds on to the last document it evaluated.
type Scratch struct {
	// nodes is the stack. A node list is a run of it; an evaluation step
	// appends its result above its inputs, and whoever asked for a list
	// cuts the stack back once done with it.
	nodes []xmldoc.Node
}

type evalCtx struct {
	node xmldoc.Node
	pos  int // 1-based position in the current node list
	size int
}

// Eval evaluates the query against doc and returns the resulting node set.
// Non-node-set results produce an error; use EvalValue for those.
func (q *Query) Eval(doc *xmldoc.Document) ([]xmldoc.Node, error) {
	v, err := q.EvalValue(doc)
	if err != nil {
		return nil, err
	}
	if v.Kind != NodeSetValue {
		return nil, fmt.Errorf("xquery: %q evaluates to a %s, not a node set", q.src, kindName(v.Kind))
	}
	return v.Nodes, nil
}

// EvalValue evaluates the query against doc and returns the raw value.
func (q *Query) EvalValue(doc *xmldoc.Document) (Value, error) {
	var s Scratch // fresh, so the value's node list is the caller's to keep
	return s.eval(q, doc)
}

// EvalBool evaluates the query and converts the result to a boolean.
func (q *Query) EvalBool(doc *xmldoc.Document) (bool, error) {
	var s Scratch
	return s.EvalBool(q, doc)
}

// EvalString evaluates the query and converts the result to a string.
func (q *Query) EvalString(doc *xmldoc.Document) (string, error) {
	v, err := q.EvalValue(doc)
	if err != nil {
		return "", err
	}
	return v.AsString(), nil
}

// EvalBool is Query.EvalBool in s's memory.
func (s *Scratch) EvalBool(q *Query, doc *xmldoc.Document) (bool, error) {
	v, err := s.eval(q, doc)
	if err != nil {
		return false, err
	}
	return v.AsBool(), nil
}

// eval evaluates q against doc from an empty stack. A node-set result is
// a run of the stack: it is good until s evaluates again.
func (s *Scratch) eval(q *Query, doc *xmldoc.Document) (Value, error) {
	if doc == nil || !doc.Root.Valid() {
		return Value{}, fmt.Errorf("xquery: nil document")
	}
	s.nodes = s.nodes[:0]
	return s.evalExpr(q.expr, evalCtx{node: doc.Root, pos: 1, size: 1})
}

func kindName(k ValueKind) string {
	switch k {
	case NodeSetValue:
		return "node-set"
	case StringValue:
		return "string"
	case NumberValue:
		return "number"
	default:
		return "boolean"
	}
}

func (s *Scratch) evalExpr(e Expr, ctx evalCtx) (Value, error) {
	switch v := e.(type) {
	case NumberLit:
		return num(float64(v)), nil
	case StringLit:
		return str(string(v)), nil
	case *BinaryExpr:
		return s.evalBinary(v, ctx)
	case *FuncCall:
		return s.evalFunc(v, ctx)
	case *PathExpr:
		ns, err := s.evalPath(v, ctx)
		if err != nil {
			return Value{}, err
		}
		return nodeSet(ns), nil
	default:
		return Value{}, fmt.Errorf("xquery: unknown expression %T", e)
	}
}

func (s *Scratch) evalBinary(b *BinaryExpr, ctx evalCtx) (Value, error) {
	switch b.Op {
	case "or":
		l, err := s.evalExpr(b.L, ctx)
		if err != nil {
			return Value{}, err
		}
		if l.AsBool() {
			return boolean(true), nil
		}
		r, err := s.evalExpr(b.R, ctx)
		if err != nil {
			return Value{}, err
		}
		return boolean(r.AsBool()), nil
	case "and":
		l, err := s.evalExpr(b.L, ctx)
		if err != nil {
			return Value{}, err
		}
		if !l.AsBool() {
			return boolean(false), nil
		}
		r, err := s.evalExpr(b.R, ctx)
		if err != nil {
			return Value{}, err
		}
		return boolean(r.AsBool()), nil
	}
	l, err := s.evalExpr(b.L, ctx)
	if err != nil {
		return Value{}, err
	}
	r, err := s.evalExpr(b.R, ctx)
	if err != nil {
		return Value{}, err
	}
	switch b.Op {
	case "+", "-":
		a, c := l.AsNumber(), r.AsNumber()
		if b.Op == "+" {
			return num(a + c), nil
		}
		return num(a - c), nil
	case "=", "!=", "<", "<=", ">", ">=":
		return boolean(compare(b.Op, l, r)), nil
	default:
		return Value{}, fmt.Errorf("xquery: unknown operator %q", b.Op)
	}
}

// compare implements XPath 1.0 comparison semantics, including the
// existential semantics of node-set comparisons.
func compare(op string, l, r Value) bool {
	if l.Kind == NodeSetValue && r.Kind == NodeSetValue {
		for _, ln := range l.Nodes {
			for _, rn := range r.Nodes {
				if cmpAtoms(op, str(nodeString(ln)), str(nodeString(rn))) {
					return true
				}
			}
		}
		return false
	}
	if l.Kind == NodeSetValue {
		for _, ln := range l.Nodes {
			if cmpAtoms(op, str(nodeString(ln)), r) {
				return true
			}
		}
		return false
	}
	if r.Kind == NodeSetValue {
		for _, rn := range r.Nodes {
			if cmpAtoms(op, l, str(nodeString(rn))) {
				return true
			}
		}
		return false
	}
	return cmpAtoms(op, l, r)
}

func cmpAtoms(op string, l, r Value) bool {
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

// evalPath leaves the path's node list — in document order, without
// duplicates — on the stack where the stack stood at the call, and returns
// it.
func (s *Scratch) evalPath(p *PathExpr, ctx evalCtx) ([]xmldoc.Node, error) {
	base := len(s.nodes)
	steps := p.Steps
	if p.Absolute {
		root := ctx.node
		for up := root.Parent(); up.Valid(); up = up.Parent() {
			root = up
		}
		if len(steps) == 0 {
			s.nodes = append(s.nodes, root)
			return s.nodes[base:], nil
		}
		// The context for the first absolute step is a virtual document
		// node whose only child is the root element: /a matches the root
		// element named a; //a matches any descendant-or-self element
		// named a. The document node has no attributes, self or parent.
		first := &steps[0]
		switch first.Axis {
		case AxisChild:
			s.pushIfMatch(first, root)
		case AxisDescendant:
			s.pushIfMatch(first, root)
			s.pushDescendants(first, root)
		}
		if err := s.applyPreds(first.Preds, base); err != nil {
			return nil, err
		}
		steps = steps[1:]
	} else {
		s.nodes = append(s.nodes, ctx.node)
	}
	cur := s.nodes[base:]
	for i := range steps {
		var err error
		if cur, err = s.applyStepAll(&steps[i], cur); err != nil {
			return nil, err
		}
	}
	// The last list sits above the ones it was derived from: move it down.
	s.nodes = s.nodes[:base+copy(s.nodes[base:], cur)]
	return s.nodes[base:], nil
}

// applyStepAll applies the step to every node of cur and returns the union
// of the results, a new list on top of the stack. Node-table order is
// document order, so the results of successive context nodes usually
// arrive sorted and distinct already; only when a context node lies inside
// another's subtree (or two share a parent, under "..") do they need
// merging.
func (s *Scratch) applyStepAll(st *Step, cur []xmldoc.Node) ([]xmldoc.Node, error) {
	lo := len(s.nodes)
	for _, n := range cur {
		if err := s.applyStep(st, n); err != nil {
			return nil, err
		}
	}
	out := s.nodes[lo:]
	for i := 1; i < len(out); i++ {
		if out[i-1].Compare(out[i]) >= 0 {
			slices.SortFunc(out, xmldoc.Node.Compare)
			out = slices.Compact(out)
			s.nodes = s.nodes[:lo+len(out)]
			break
		}
	}
	return out, nil
}

// applyStep pushes the nodes the step selects from context node n.
func (s *Scratch) applyStep(st *Step, n xmldoc.Node) error {
	lo := len(s.nodes)
	switch st.Axis {
	case AxisChild:
		for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
			s.pushIfMatch(st, c)
		}
	case AxisDescendant:
		s.pushDescendants(st, n)
	case AxisSelf:
		s.pushIfMatch(st, n)
	case AxisParent:
		if p := n.Parent(); p.Valid() {
			s.pushIfMatch(st, p)
		}
	case AxisAttribute:
		// An attribute is surfaced as a handle that reads as a text node, so
		// that string conversion and comparison work uniformly; its parent
		// is the owning element, so ".." still works.
		for k := range n.NumAttrs() {
			if st.Kind == TestAny || n.AttrAt(k).Name == st.Name {
				s.nodes = append(s.nodes, n.AttrNode(k))
			}
		}
	}
	return s.applyPreds(st.Preds, lo)
}

func (s *Scratch) pushDescendants(st *Step, n xmldoc.Node) {
	n.Descendants(func(d xmldoc.Node) bool {
		s.pushIfMatch(st, d)
		return true
	})
}

// pushIfMatch pushes n if it passes the step's node test.
func (s *Scratch) pushIfMatch(st *Step, n xmldoc.Node) {
	var ok bool
	switch st.Kind {
	case TestName:
		ok = n.Kind() == xmldoc.ElementNode && n.Name() == st.Name
	case TestAny:
		ok = n.Kind() == xmldoc.ElementNode
	case TestText:
		ok = n.Kind() == xmldoc.TextNode
	case TestNode:
		ok = true
	}
	if ok {
		s.nodes = append(s.nodes, n)
	}
}

// applyPreds filters the list on top of the stack, s.nodes[lo:], by each
// predicate in turn, in place. A predicate's own lists live above the
// list while it runs and are dropped before the next candidate.
func (s *Scratch) applyPreds(preds []Expr, lo int) error {
	for _, pred := range preds {
		top := len(s.nodes)
		size, kept := top-lo, lo
		for i := 0; i < size; i++ {
			n := s.nodes[lo+i]
			v, err := s.evalExpr(pred, evalCtx{node: n, pos: i + 1, size: size})
			if err != nil {
				return err
			}
			// A numeric predicate is a position test.
			keep := v.Kind == NumberValue && float64(i+1) == v.Num ||
				v.Kind != NumberValue && v.AsBool()
			s.nodes = s.nodes[:top]
			if keep {
				s.nodes[kept] = n
				kept++
			}
		}
		s.nodes = s.nodes[:kept]
	}
	return nil
}

// --- core function library ---

var arity = map[string][2]int{
	"contains":         {2, 2},
	"starts-with":      {2, 2},
	"count":            {1, 1},
	"position":         {0, 0},
	"last":             {0, 0},
	"name":             {0, 1},
	"not":              {1, 1},
	"string":           {0, 1},
	"number":           {0, 1},
	"true":             {0, 0},
	"false":            {0, 0},
	"concat":           {2, 16},
	"string-length":    {0, 1},
	"normalize-space":  {0, 1},
	"substring-before": {2, 2},
	"substring-after":  {2, 2},
}

var coreFunctions = arity // presence check shares the table

func (s *Scratch) evalFunc(f *FuncCall, ctx evalCtx) (Value, error) {
	var few [4]Value // all but concat take at most two
	argv := few[:0]
	for _, a := range f.Args {
		v, err := s.evalExpr(a, ctx)
		if err != nil {
			return Value{}, err
		}
		argv = append(argv, v)
	}
	switch f.Name {
	case "contains":
		return boolean(strings.Contains(argv[0].AsString(), argv[1].AsString())), nil
	case "starts-with":
		return boolean(strings.HasPrefix(argv[0].AsString(), argv[1].AsString())), nil
	case "count":
		if argv[0].Kind != NodeSetValue {
			return Value{}, fmt.Errorf("xquery: count() requires a node set")
		}
		return num(float64(len(argv[0].Nodes))), nil
	case "position":
		return num(float64(ctx.pos)), nil
	case "last":
		return num(float64(ctx.size)), nil
	case "name":
		n := ctx.node
		if len(argv) == 1 {
			if argv[0].Kind != NodeSetValue || len(argv[0].Nodes) == 0 {
				return str(""), nil
			}
			n = argv[0].Nodes[0]
		}
		return str(n.Name()), nil
	case "not":
		return boolean(!argv[0].AsBool()), nil
	case "string":
		if len(argv) == 0 {
			return str(nodeString(ctx.node)), nil
		}
		return str(argv[0].AsString()), nil
	case "number":
		if len(argv) == 0 {
			return num(Value{Kind: StringValue, Str: nodeString(ctx.node)}.AsNumber()), nil
		}
		return num(argv[0].AsNumber()), nil
	case "true":
		return boolean(true), nil
	case "false":
		return boolean(false), nil
	case "concat":
		var sb strings.Builder
		for _, a := range argv {
			sb.WriteString(a.AsString())
		}
		return str(sb.String()), nil
	case "string-length":
		if len(argv) == 0 {
			return num(float64(len(nodeString(ctx.node)))), nil
		}
		return num(float64(len(argv[0].AsString()))), nil
	case "normalize-space":
		s := ""
		if len(argv) == 0 {
			s = nodeString(ctx.node)
		} else {
			s = argv[0].AsString()
		}
		return str(strings.Join(strings.Fields(s), " ")), nil
	case "substring-before":
		s, sep := argv[0].AsString(), argv[1].AsString()
		if i := strings.Index(s, sep); i >= 0 {
			return str(s[:i]), nil
		}
		return str(""), nil
	case "substring-after":
		s, sep := argv[0].AsString(), argv[1].AsString()
		if i := strings.Index(s, sep); i >= 0 {
			return str(s[i+len(sep):]), nil
		}
		return str(""), nil
	default:
		return Value{}, fmt.Errorf("xquery: unknown function %q", f.Name)
	}
}
