// Package xquery implements the path-expression query language Graphitti
// uses to search annotation contents.
//
// The paper stores annotation contents as a collection of XML documents and
// performs "collection-searching operations … using standard XQuery"; the
// query processor embeds "XQuery fragments to retrieve fragments of
// annotation". This package implements the XPath 1.0 subset those fragments
// need: absolute/relative location paths with child, descendant, attribute,
// self and parent axes, positional and comparison predicates, and the core
// function library (contains, starts-with, count, position, last, name,
// not, text, string, number, boolean literals).
//
// Expressions compile once (Compile) and evaluate against any document.
package xquery

import (
	"fmt"
	"strconv"
	"strings"
)

// --- AST ---

// Expr is any compiled expression node.
type Expr interface{ exprNode() }

// Axis selects the relationship a step traverses.
type Axis uint8

// Axes supported by the subset.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisAttribute
	AxisSelf
	AxisParent
)

// TestKind discriminates node tests within a step.
type TestKind uint8

// Node tests supported by the subset.
const (
	TestName TestKind = iota // a specific element (or attribute) name
	TestAny                  // *
	TestText                 // text()
	TestNode                 // node()
)

// Step is one location step: axis, node test, and zero or more predicates.
type Step struct {
	Axis  Axis
	Kind  TestKind
	Name  string
	Preds []Expr
}

// PathExpr is a location path.
type PathExpr struct {
	Absolute bool
	Steps    []Step
}

// BinaryExpr applies an operator to two sub-expressions. Op is one of
// "or", "and", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "div", "mod".
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// NumberLit is a numeric literal.
type NumberLit float64

// StringLit is a string literal.
type StringLit string

// FuncCall invokes a core-library function.
type FuncCall struct {
	Name string
	Args []Expr
}

func (*PathExpr) exprNode()   {}
func (*BinaryExpr) exprNode() {}
func (NumberLit) exprNode()   {}
func (StringLit) exprNode()   {}
func (*FuncCall) exprNode()   {}

// Query is a compiled expression ready for evaluation.
type Query struct {
	expr Expr
}

// SyntaxError describes a compile failure with its position.
type SyntaxError struct {
	Src string
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xquery: %s at offset %d in %q", e.Msg, e.Pos, e.Src)
}

// Compile parses an expression.
func Compile(src string) (*Query, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %q after expression", p.tok.text)
	}
	return &Query{expr: expr}, nil
}

// --- lexer ---

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokSlash
	tokDSlash
	tokAt
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokComma
	tokStar
	tokDot
	tokDotDot
	tokName
	tokString
	tokNumber
	tokOp // = != < <= > >= + -
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '.'
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n' || l.src[l.pos] == '\r') {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '/':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '/' {
			l.pos++
			return token{tokDSlash, "//", start}, nil
		}
		return token{tokSlash, "/", start}, nil
	case c == '@':
		l.pos++
		return token{tokAt, "@", start}, nil
	case c == '[':
		l.pos++
		return token{tokLBracket, "[", start}, nil
	case c == ']':
		l.pos++
		return token{tokRBracket, "]", start}, nil
	case c == '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case c == ',':
		l.pos++
		return token{tokComma, ",", start}, nil
	case c == '*':
		l.pos++
		return token{tokStar, "*", start}, nil
	case c == '.':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '.' {
			l.pos++
			return token{tokDotDot, "..", start}, nil
		}
		return token{tokDot, ".", start}, nil
	case c == '=':
		l.pos++
		return token{tokOp, "=", start}, nil
	case c == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{tokOp, "!=", start}, nil
		}
		return token{}, &SyntaxError{l.src, start, "expected != "}
	case c == '<' || c == '>':
		l.pos++
		op := string(c)
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			op += "="
			l.pos++
		}
		return token{tokOp, op, start}, nil
	case c == '+' || c == '-':
		l.pos++
		return token{tokOp, string(c), start}, nil
	case c == '\'' || c == '"':
		quote := c
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, &SyntaxError{l.src, start, "unterminated string literal"}
		}
		text := l.src[start+1 : l.pos]
		l.pos++
		return token{tokString, text, start}, nil
	case c >= '0' && c <= '9':
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
			l.pos++
		}
		return token{tokNumber, l.src[start:l.pos], start}, nil
	case isNameStart(c):
		for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
			l.pos++
		}
		return token{tokName, l.src[start:l.pos], start}, nil
	default:
		return token{}, &SyntaxError{l.src, start, fmt.Sprintf("unexpected character %q", c)}
	}
}

// --- parser ---

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return &SyntaxError{p.lex.src, p.tok.pos, fmt.Sprintf(format, args...)}
}

// parseExpr := orExpr
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokName && p.tok.text == "or" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "or", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokName && p.tok.text == "and" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "and", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseCmp() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "=" || p.tok.text == "!=" ||
		p.tok.text == "<" || p.tok.text == "<=" || p.tok.text == ">" || p.tok.text == ">=") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.tok.kind == tokOp && p.tok.text == "-" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: "-", L: NumberLit(0), R: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.kind {
	case tokNumber:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return NumberLit(f), nil
	case tokString:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return StringLit(s), nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errorf("expected )")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return inner, nil
	case tokSlash, tokDSlash, tokAt, tokDot, tokDotDot, tokStar:
		return p.parsePath()
	case tokName:
		// Function call or relative path; disambiguate by lookahead for '('.
		name := p.tok.text
		save := *p.lex
		savedTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokLParen && !isNodeTestName(name) {
			return p.parseFuncCall(name)
		}
		// Rewind: it's a path beginning with a name test.
		*p.lex = save
		p.tok = savedTok
		return p.parsePath()
	default:
		return nil, p.errorf("unexpected %q", p.tok.text)
	}
}

// isNodeTestName reports whether name(…) is a node test rather than a
// function call when it appears as a path step.
func isNodeTestName(name string) bool { return name == "text" || name == "node" }

func (p *parser) parseFuncCall(name string) (Expr, error) {
	// current token is '('
	if err := p.advance(); err != nil {
		return nil, err
	}
	call := &FuncCall{Name: name}
	if p.tok.kind != tokRParen {
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.tok.kind != tokRParen {
		return nil, p.errorf("expected ) in call to %s", name)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if _, ok := coreFunctions[name]; !ok {
		return nil, p.errorf("unknown function %q", name)
	}
	if err := checkArity(name, len(call.Args)); err != nil {
		return nil, p.errorf("%v", err)
	}
	return call, nil
}

func checkArity(name string, n int) error {
	lo, hi := arity[name][0], arity[name][1]
	if n < lo || n > hi {
		return fmt.Errorf("function %s takes %d..%d arguments, got %d", name, lo, hi, n)
	}
	return nil
}

func (p *parser) parsePath() (Expr, error) {
	path := &PathExpr{}
	switch p.tok.kind {
	case tokSlash:
		path.Absolute = true
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokEOF {
			// "/" alone selects the root.
			return path, nil
		}
	case tokDSlash:
		path.Absolute = true
		if err := p.advance(); err != nil {
			return nil, err
		}
		step, err := p.parseStep(AxisDescendant)
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, step)
		return p.parseMoreSteps(path)
	}
	step, err := p.parseStep(AxisChild)
	if err != nil {
		return nil, err
	}
	path.Steps = append(path.Steps, step)
	return p.parseMoreSteps(path)
}

func (p *parser) parseMoreSteps(path *PathExpr) (Expr, error) {
	for {
		switch p.tok.kind {
		case tokSlash:
			if err := p.advance(); err != nil {
				return nil, err
			}
			step, err := p.parseStep(AxisChild)
			if err != nil {
				return nil, err
			}
			path.Steps = append(path.Steps, step)
		case tokDSlash:
			if err := p.advance(); err != nil {
				return nil, err
			}
			step, err := p.parseStep(AxisDescendant)
			if err != nil {
				return nil, err
			}
			path.Steps = append(path.Steps, step)
		default:
			return path, nil
		}
	}
}

func (p *parser) parseStep(axis Axis) (Step, error) {
	step := Step{Axis: axis, Kind: TestName}
	switch p.tok.kind {
	case tokAt:
		if axis == AxisDescendant {
			// //@x means descendant-or-self::node()/@x; approximate with
			// attribute search on all descendants.
			step.Axis = AxisAttribute
		} else {
			step.Axis = AxisAttribute
		}
		if err := p.advance(); err != nil {
			return step, err
		}
		switch p.tok.kind {
		case tokName:
			step.Name = p.tok.text
		case tokStar:
			step.Kind = TestAny
		default:
			return step, p.errorf("expected attribute name after @")
		}
		if err := p.advance(); err != nil {
			return step, err
		}
	case tokStar:
		step.Kind = TestAny
		if err := p.advance(); err != nil {
			return step, err
		}
	case tokDot:
		step.Axis = AxisSelf
		step.Kind = TestNode
		if err := p.advance(); err != nil {
			return step, err
		}
	case tokDotDot:
		step.Axis = AxisParent
		step.Kind = TestNode
		if err := p.advance(); err != nil {
			return step, err
		}
	case tokName:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return step, err
		}
		if p.tok.kind == tokLParen && isNodeTestName(name) {
			if err := p.advance(); err != nil {
				return step, err
			}
			if p.tok.kind != tokRParen {
				return step, p.errorf("expected ) after %s(", name)
			}
			if err := p.advance(); err != nil {
				return step, err
			}
			if name == "text" {
				step.Kind = TestText
			} else {
				step.Kind = TestNode
			}
		} else {
			step.Name = name
		}
	default:
		return step, p.errorf("expected step, found %q", p.tok.text)
	}
	for p.tok.kind == tokLBracket {
		if err := p.advance(); err != nil {
			return step, err
		}
		pred, err := p.parseExpr()
		if err != nil {
			return step, err
		}
		if p.tok.kind != tokRBracket {
			return step, p.errorf("expected ]")
		}
		if err := p.advance(); err != nil {
			return step, err
		}
		step.Preds = append(step.Preds, pred)
	}
	return step, nil
}

// String reconstructs a textual form of the compiled expression (for
// diagnostics; not guaranteed to be byte-identical to the source).
func (q *Query) String() string { return exprString(q.expr) }

func exprString(e Expr) string {
	switch v := e.(type) {
	case NumberLit:
		return strconv.FormatFloat(float64(v), 'g', -1, 64)
	case StringLit:
		return "'" + string(v) + "'"
	case *BinaryExpr:
		return "(" + exprString(v.L) + " " + v.Op + " " + exprString(v.R) + ")"
	case *FuncCall:
		args := make([]string, len(v.Args))
		for i, a := range v.Args {
			args[i] = exprString(a)
		}
		return v.Name + "(" + strings.Join(args, ", ") + ")"
	case *PathExpr:
		var sb strings.Builder
		for i, s := range v.Steps {
			if i == 0 {
				if v.Absolute {
					if s.Axis == AxisDescendant {
						sb.WriteString("//")
					} else {
						sb.WriteString("/")
					}
				}
			} else {
				if s.Axis == AxisDescendant {
					sb.WriteString("//")
				} else {
					sb.WriteString("/")
				}
			}
			sb.WriteString(stepString(s))
		}
		if len(v.Steps) == 0 {
			sb.WriteString("/")
		}
		return sb.String()
	default:
		return fmt.Sprintf("%v", e)
	}
}

func stepString(s Step) string {
	var sb strings.Builder
	switch s.Axis {
	case AxisAttribute:
		sb.WriteString("@")
	case AxisSelf:
		return "."
	case AxisParent:
		return ".."
	}
	switch s.Kind {
	case TestAny:
		sb.WriteString("*")
	case TestText:
		sb.WriteString("text()")
	case TestNode:
		sb.WriteString("node()")
	default:
		sb.WriteString(s.Name)
	}
	for _, p := range s.Preds {
		sb.WriteString("[")
		sb.WriteString(exprString(p))
		sb.WriteString("]")
	}
	return sb.String()
}
