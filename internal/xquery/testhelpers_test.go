package xquery

import (
	"fmt"
	"graphitti/internal/xmldoc"
)

// Eval evaluates the query against doc and returns the resulting node set.
// Non-node-set results produce an error; use EvalValue for those.
func (q *Query) Eval(doc *xmldoc.Document) ([]xmldoc.Node, error) {
	v, err := q.EvalValue(doc)
	if err != nil {
		return nil, err
	}
	if v.Kind != NodeSetValue {
		return nil, fmt.Errorf("xquery: %q evaluates to a %s, not a node set", q, kindName(v.Kind))
	}
	return v.Nodes, nil
}

// MustCompile is Compile for expressions known to be valid; it panics on
// error. Intended for tests and package-level variables.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// EvalValue evaluates the query against doc and returns the raw value.
func (q *Query) EvalValue(doc *xmldoc.Document) (Value, error) {
	var s Scratch // fresh, so the value's node list is the caller's to keep
	return s.eval(q, doc)
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
