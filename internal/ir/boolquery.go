package ir

import (
	"fmt"
	"strings"
	"unicode"
)

// Boolean query language of §3.2: keyword terms combined with AND, OR and
// parentheses, e.g.
//
//	information AND (storing OR retrieval)
//
// compile to relational plans by mapping AND to Join and OR to OuterJoin
// over the terms' posting ranges, exactly as the paper's example
// translates to
//
//	Join(ScanSelect(TD1, term="information"),
//	     OuterJoin(ScanSelect(TD2, term="storing"),
//	               ScanSelect(TD3, term="retrieval")))

// BoolExpr is a parsed boolean query.
type BoolExpr interface {
	// String renders the expression with explicit parentheses.
	String() string
	// node seals the interface: boolPlan compiles only this package's
	// nodes, and panics on any other.
	node()
}

// BoolTerm is a single keyword leaf.
type BoolTerm struct{ Term string }

// BoolAnd is a conjunction of two sub-expressions.
type BoolAnd struct{ L, R BoolExpr }

// BoolOr is a disjunction of two sub-expressions.
type BoolOr struct{ L, R BoolExpr }

func (t *BoolTerm) String() string { return t.Term }
func (a *BoolAnd) String() string  { return "(" + a.L.String() + " AND " + a.R.String() + ")" }
func (o *BoolOr) String() string   { return "(" + o.L.String() + " OR " + o.R.String() + ")" }

func (*BoolTerm) node() {}
func (*BoolAnd) node()  {}
func (*BoolOr) node()   {}

// ParseBoolQuery parses the §3.2 query language. Grammar (AND binds
// tighter than OR; both left-associative; bare adjacency is conjunction,
// matching web-search convention):
//
//	query  := orExpr
//	orExpr := andExpr ( "OR" andExpr )*
//	andExpr:= unary ( ["AND"] unary )*
//	unary  := TERM | "(" query ")"
func ParseBoolQuery(s string) (BoolExpr, error) {
	p := &boolParser{toks: tokenizeBool(s)}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("ir: unexpected %q at end of query", p.toks[p.pos])
	}
	return e, nil
}

type boolParser struct {
	toks []string
	pos  int
}

func (p *boolParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *boolParser) parseOr() (BoolExpr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for strings.EqualFold(p.peek(), "OR") {
		p.pos++
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BoolOr{L: l, R: r}
	}
	return l, nil
}

func (p *boolParser) parseAnd() (BoolExpr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case strings.EqualFold(t, "AND"):
			p.pos++
		case t == "" || t == ")" || strings.EqualFold(t, "OR"):
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BoolAnd{L: l, R: r}
	}
}

func (p *boolParser) parseUnary() (BoolExpr, error) {
	t := p.peek()
	switch {
	case t == "":
		return nil, fmt.Errorf("ir: unexpected end of query")
	case t == "(":
		p.pos++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ")" {
			return nil, fmt.Errorf("ir: missing closing parenthesis")
		}
		p.pos++
		return e, nil
	case t == ")":
		return nil, fmt.Errorf("ir: unexpected closing parenthesis")
	case strings.EqualFold(t, "AND") || strings.EqualFold(t, "OR"):
		return nil, fmt.Errorf("ir: operator %q needs a left operand", t)
	default:
		p.pos++
		return &BoolTerm{Term: strings.ToLower(t)}, nil
	}
}

func tokenizeBool(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '(' || r == ')':
			flush()
			toks = append(toks, string(r))
		case unicode.IsSpace(r):
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return toks
}
