package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"graphitti/internal/interval"
	"graphitti/internal/rtree"
	"graphitti/internal/xquery"
)

// ErrSyntax wraps every reason Parse refuses a query: text that does not
// parse, a query that names an undeclared variable or joins the wrong
// classes, an xpath property whose expression does not compile.
var ErrSyntax = errors.New("query: syntax error")

// Parse compiles query text into a validated Query.
func Parse(src string) (*Query, error) {
	p := &qparser{lex: newQLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	return q, nil
}

type qtokKind uint8

const (
	qEOF qtokKind = iota
	qIdent
	qVar
	qString
	qNumber
	qLBrace
	qRBrace
	qLBracket
	qRBracket
	qLParen
	qRParen
	qComma
	qSemi
	qDot
)

type qtoken struct {
	kind qtokKind
	text string
	pos  int
}

type qlexer struct {
	src string
	pos int
}

func newQLexer(src string) *qlexer { return &qlexer{src: src} }

func (l *qlexer) next() (qtoken, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '#' { // comment to end of line
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return qtoken{kind: qEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '{':
		l.pos++
		return qtoken{qLBrace, "{", start}, nil
	case c == '}':
		l.pos++
		return qtoken{qRBrace, "}", start}, nil
	case c == '[':
		l.pos++
		return qtoken{qLBracket, "[", start}, nil
	case c == ']':
		l.pos++
		return qtoken{qRBracket, "]", start}, nil
	case c == '(':
		l.pos++
		return qtoken{qLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return qtoken{qRParen, ")", start}, nil
	case c == ',':
		l.pos++
		return qtoken{qComma, ",", start}, nil
	case c == ';':
		l.pos++
		return qtoken{qSemi, ";", start}, nil
	case c == '.':
		l.pos++
		return qtoken{qDot, ".", start}, nil
	case c == '?':
		l.pos++
		s := l.pos
		for l.pos < len(l.src) && isQIdentChar(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == s {
			return qtoken{}, fmt.Errorf("%w: empty variable name at %d", ErrSyntax, start)
		}
		return qtoken{qVar, l.src[s:l.pos], start}, nil
	case c == '"' || c == '\'':
		quote := c
		l.pos++
		s := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return qtoken{}, fmt.Errorf("%w: unterminated string at %d", ErrSyntax, start)
		}
		text := l.src[s:l.pos]
		l.pos++
		return qtoken{qString, text, start}, nil
	case c >= '0' && c <= '9' || c == '-':
		l.pos++
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
			// A trailing '.' followed by non-digit is the statement dot.
			if l.src[l.pos] == '.' && (l.pos+1 >= len(l.src) || l.src[l.pos+1] < '0' || l.src[l.pos+1] > '9') {
				break
			}
			l.pos++
		}
		return qtoken{qNumber, l.src[start:l.pos], start}, nil
	case isQIdentStart(c):
		for l.pos < len(l.src) && isQIdentChar(l.src[l.pos]) {
			l.pos++
		}
		return qtoken{qIdent, l.src[start:l.pos], start}, nil
	default:
		return qtoken{}, fmt.Errorf("%w: unexpected %q at %d", ErrSyntax, c, start)
	}
}

func isQIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isQIdentChar(c byte) bool {
	return isQIdentStart(c) || c >= '0' && c <= '9' || c == '-'
}

type qparser struct {
	lex *qlexer
	tok qtoken
}

func (p *qparser) next() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *qparser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s at offset %d", ErrSyntax, fmt.Sprintf(format, args...), p.tok.pos)
}

func (p *qparser) expectIdent(word string) error {
	if p.tok.kind != qIdent || !strings.EqualFold(p.tok.text, word) {
		return p.errorf("expected %q, found %q", word, p.tok.text)
	}
	return p.next()
}

func (p *qparser) parseQuery() (*Query, error) {
	q := &Query{}
	if err := p.expectIdent("select"); err != nil {
		return nil, err
	}
	if p.tok.kind != qIdent {
		return nil, p.errorf("expected contents|referents|graph")
	}
	switch strings.ToLower(p.tok.text) {
	case "contents":
		q.Select = SelectContents
	case "referents":
		q.Select = SelectReferents
	case "graph":
		q.Select = SelectGraph
	default:
		return nil, p.errorf("expected contents|referents|graph, found %q", p.tok.text)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	if err := p.expectIdent("where"); err != nil {
		return nil, err
	}
	if p.tok.kind != qLBrace {
		return nil, p.errorf("expected {")
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	for p.tok.kind != qRBrace {
		if err := p.parseStatement(q); err != nil {
			return nil, err
		}
	}
	if err := p.next(); err != nil { // consume }
		return nil, err
	}
	if p.tok.kind == qIdent && strings.EqualFold(p.tok.text, "constrain") {
		if err := p.next(); err != nil {
			return nil, err
		}
		for p.tok.kind == qIdent && !strings.EqualFold(p.tok.text, "limit") {
			c, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			q.Constraints = append(q.Constraints, c)
		}
	}
	if p.tok.kind == qIdent && strings.EqualFold(p.tok.text, "limit") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.kind != qNumber {
			return nil, p.errorf("limit wants a number")
		}
		n, err := strconv.Atoi(p.tok.text)
		if err != nil || n < 1 {
			return nil, p.errorf("bad limit %q", p.tok.text)
		}
		q.Limit = n
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != qEOF {
		return nil, p.errorf("unexpected %q after query", p.tok.text)
	}
	return q, nil
}

// parseStatement handles either a declaration (?v isa class ; props .) or
// an edge pattern (?a label ?b .).
func (p *qparser) parseStatement(q *Query) error {
	if p.tok.kind != qVar {
		return p.errorf("expected variable, found %q", p.tok.text)
	}
	subject := p.tok.text
	if err := p.next(); err != nil {
		return err
	}
	if p.tok.kind != qIdent {
		return p.errorf("expected predicate after ?%s", subject)
	}
	pred := p.tok.text
	if err := p.next(); err != nil {
		return err
	}
	if strings.EqualFold(pred, "isa") {
		return p.parseDecl(q, subject)
	}
	// Edge pattern: label then object variable.
	label, ok := normaliseLabel(pred)
	if !ok {
		return p.errorf("unknown edge label %q", pred)
	}
	if p.tok.kind != qVar {
		return p.errorf("expected variable after %s", pred)
	}
	obj := p.tok.text
	if err := p.next(); err != nil {
		return err
	}
	if p.tok.kind != qDot {
		return p.errorf("expected . after edge pattern")
	}
	if err := p.next(); err != nil {
		return err
	}
	q.Edges = append(q.Edges, EdgePattern{From: subject, To: obj, Label: label})
	return nil
}

func normaliseLabel(s string) (string, bool) {
	switch strings.ToLower(s) {
	case "annotates":
		return "annotates", true
	case "marks":
		return "marks", true
	case "refersto", "refers-to":
		return "refersTo", true
	default:
		return "", false
	}
}

func (p *qparser) parseDecl(q *Query, name string) error {
	if p.tok.kind != qIdent {
		return p.errorf("expected class after isa")
	}
	var class NodeClass
	switch strings.ToLower(p.tok.text) {
	case "annotation":
		class = ClassAnnotation
	case "referent":
		class = ClassReferent
	case "object":
		class = ClassObject
	case "term":
		class = ClassTerm
	default:
		return p.errorf("unknown class %q", p.tok.text)
	}
	if err := p.next(); err != nil {
		return err
	}
	decl := VarDecl{Name: name, Class: class}
	for p.tok.kind == qSemi {
		if err := p.next(); err != nil {
			return err
		}
		prop, err := p.parseProp(class)
		if err != nil {
			return err
		}
		decl.Props = append(decl.Props, prop)
	}
	if p.tok.kind != qDot {
		return p.errorf("expected . after declaration of ?%s", name)
	}
	if err := p.next(); err != nil {
		return err
	}
	q.Vars = append(q.Vars, decl)
	return nil
}

func (p *qparser) parseProp(class NodeClass) (Prop, error) {
	if p.tok.kind != qIdent {
		return Prop{}, p.errorf("expected property name")
	}
	name := strings.ToLower(p.tok.text)
	if err := p.next(); err != nil {
		return Prop{}, err
	}
	strArg := func() (string, error) {
		if p.tok.kind != qString && p.tok.kind != qIdent {
			return "", p.errorf("property %s needs a string or identifier argument", name)
		}
		s := p.tok.text
		return s, p.next()
	}
	switch name {
	case "contains":
		s, err := strArg()
		return Prop{Kind: PropContains, Str: s}, err
	case "creator":
		s, err := strArg()
		return Prop{Kind: PropCreator, Str: s}, err
	case "xpath":
		s, err := strArg()
		if err != nil {
			return Prop{}, err
		}
		xq, err := xquery.Compile(s)
		if err != nil {
			return Prop{}, fmt.Errorf("%w: xpath property: %v", ErrSyntax, err)
		}
		return Prop{Kind: PropXPath, Str: s, xpath: xq}, nil
	case "kind":
		s, err := strArg()
		return Prop{Kind: PropKindIs, Str: strings.ToLower(s)}, err
	case "domain":
		s, err := strArg()
		return Prop{Kind: PropDomain, Str: s}, err
	case "object":
		s, err := strArg()
		return Prop{Kind: PropObjectIs, Str: s}, err
	case "type":
		s, err := strArg()
		return Prop{Kind: PropType, Str: s}, err
	case "id":
		s, err := strArg()
		return Prop{Kind: PropID, Str: s}, err
	case "ontology":
		s, err := strArg()
		return Prop{Kind: PropOntology, Str: s}, err
	case "term":
		s, err := strArg()
		return Prop{Kind: PropTermIs, Str: s}, err
	case "under":
		s, err := strArg()
		return Prop{Kind: PropUnder, Str: s}, err
	case "named":
		s, err := strArg()
		return Prop{Kind: PropNamed, Str: s}, err
	case "derived":
		s, err := p.optionalRuleArg()
		return Prop{Kind: PropDerived, Str: s}, err
	case "provenance":
		s, err := p.optionalRuleArg()
		return Prop{Kind: PropProvenance, Str: s}, err
	case "overlaps":
		return p.parseOverlaps(class)
	default:
		return Prop{}, p.errorf("unknown property %q", name)
	}
}

// optionalRuleArg consumes a rule-ID argument if one follows; a bare
// `derived` / `provenance` predicate matches facts of any rule ("*").
func (p *qparser) optionalRuleArg() (string, error) {
	if p.tok.kind != qString && p.tok.kind != qIdent {
		return "*", nil
	}
	s := p.tok.text
	return s, p.next()
}

// parseOverlaps parses "[lo, hi)" as an interval or "[x0, y0, x1, y1]" as
// a rectangle.
func (p *qparser) parseOverlaps(class NodeClass) (Prop, error) {
	if p.tok.kind != qLBracket {
		return Prop{}, p.errorf("overlaps needs [lo, hi) or [x0, y0, x1, y1]")
	}
	if err := p.next(); err != nil {
		return Prop{}, err
	}
	var nums []float64
	for {
		if p.tok.kind != qNumber {
			return Prop{}, p.errorf("expected number in overlaps range")
		}
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return Prop{}, p.errorf("bad number %q", p.tok.text)
		}
		nums = append(nums, f)
		if err := p.next(); err != nil {
			return Prop{}, err
		}
		if p.tok.kind == qComma {
			if err := p.next(); err != nil {
				return Prop{}, err
			}
			continue
		}
		break
	}
	switch p.tok.kind {
	case qRParen:
		if len(nums) != 2 {
			return Prop{}, p.errorf("interval overlap needs exactly [lo, hi)")
		}
		if err := p.next(); err != nil {
			return Prop{}, err
		}
		return Prop{Kind: PropOverlapsIv,
			Iv: interval.Interval{Lo: int64(nums[0]), Hi: int64(nums[1])}}, nil
	case qRBracket:
		if len(nums) != 4 && len(nums) != 6 {
			return Prop{}, p.errorf("rect overlap needs [x0,y0,x1,y1] or [x0,y0,z0,x1,y1,z1]")
		}
		if err := p.next(); err != nil {
			return Prop{}, err
		}
		var r rtree.Rect
		if len(nums) == 4 {
			r = rtree.Rect2D(nums[0], nums[1], nums[2], nums[3])
		} else {
			r = rtree.Rect3D(nums[0], nums[1], nums[2], nums[3], nums[4], nums[5])
		}
		return Prop{Kind: PropOverlapsRect, Rect: r}, nil
	default:
		return Prop{}, p.errorf("expected ) or ] to close overlaps range")
	}
}

func (p *qparser) parseConstraint() (Constraint, error) {
	var kind ConstraintKind
	switch strings.ToLower(p.tok.text) {
	case "disjoint":
		kind = ConstraintDisjoint
	case "overlapping":
		kind = ConstraintOverlapping
	case "consecutive":
		kind = ConstraintConsecutive
	case "samedomain":
		kind = ConstraintSameDomain
	case "distinct":
		kind = ConstraintDistinct
	default:
		return Constraint{}, p.errorf("unknown constraint %q", p.tok.text)
	}
	if err := p.next(); err != nil {
		return Constraint{}, err
	}
	if p.tok.kind != qLParen {
		return Constraint{}, p.errorf("expected ( after constraint name")
	}
	if err := p.next(); err != nil {
		return Constraint{}, err
	}
	c := Constraint{Kind: kind}
	for {
		if p.tok.kind != qVar {
			return Constraint{}, p.errorf("expected variable in constraint")
		}
		c.Vars = append(c.Vars, p.tok.text)
		if err := p.next(); err != nil {
			return Constraint{}, err
		}
		if p.tok.kind == qComma {
			if err := p.next(); err != nil {
				return Constraint{}, err
			}
			continue
		}
		break
	}
	if p.tok.kind != qRParen {
		return Constraint{}, p.errorf("expected ) to close constraint")
	}
	if err := p.next(); err != nil {
		return Constraint{}, err
	}
	return c, nil
}
