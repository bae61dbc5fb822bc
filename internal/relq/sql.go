package relq

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/agg"
)

// CmpOp is a comparison operator in a WHERE predicate.
type CmpOp int

const (
	OpEq CmpOp = iota // =
	OpNe              // <>
	OpLt              // <
	OpLe              // <=
	OpGt              // >
	OpGe              // >=
)

// opSpellings are the operators' SQL spellings, indexed by CmpOp.
var opSpellings = []string{"=", "<>", "<", "<=", ">", ">="}

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	if op < 0 || int(op) >= len(opSpellings) {
		return "?"
	}
	return opSpellings[op]
}

// Expr is a scalar expression on the right-hand side of a predicate: an
// integer literal, a string literal, or NOW() plus an integer offset.
// NOW() resolves against the querying endsystem's clock at execution time,
// as the paper specifies ("NOW() will be generated using the querying
// endsystem's timestamp").
type Expr struct {
	IsString bool
	Str      string // raw string literal (hashing happens at bind time)
	Int      int64  // literal value, or offset when UsesNow
	UsesNow  bool
}

// Resolve evaluates the expression to its stored int64 encoding, given the
// current time in seconds.
func (e Expr) Resolve(nowSeconds int64) int64 {
	if e.IsString {
		return HashString(e.Str)
	}
	if e.UsesNow {
		return nowSeconds + e.Int
	}
	return e.Int
}

// Pred is one conjunct of a WHERE clause: column op expr.
type Pred struct {
	Col string
	Op  CmpOp
	Val Expr
}

// Query is a parsed Seaweed query: a single-table aggregate
// select-project-aggregate query with a conjunctive WHERE clause.
type Query struct {
	Agg      agg.Kind
	AggCol   string // empty for COUNT(*)
	CountAll bool   // COUNT(*)
	Table    string
	Preds    []Pred
	Raw      string // original text; its SHA-1 is the queryId
	// Continuous marks a standing query: endsystems re-execute it
	// periodically and replace their contribution as local data changes
	// (the extension §3.4 sketches: "the same protocol can be extended
	// easily to support continuous queries in a failure-resilient
	// manner"). Set programmatically; one-shot queries leave it false.
	Continuous bool
	// RTTScope, when positive, restricts the query to the endsystems whose
	// predicted RTT from the injector — per the network-coordinate space
	// frozen at injection time — is at most this bound ("endsystems within
	// T ms of me"). Set programmatically. Requires the coordinate
	// subsystem (ClusterConfig.Coords.Enabled); with coordinates disabled
	// the scope is ignored and the query runs unscoped. seaweed-sim
	// -rtt-scope turns coordinates on itself, so it never runs that
	// combination.
	RTTScope time.Duration

	// plan is the bound plan Table.Plan memoizes on the query.
	plan atomic.Pointer[Plan]
}

// String returns the original query text.
func (q *Query) String() string { return q.Raw }

// BindNow returns a copy of the query with every NOW() expression resolved
// against the given clock (seconds). The paper binds NOW() at the querying
// endsystem ("NOW() will be generated using the querying endsystem's
// timestamp and compared locally against each endsystem's local
// timestamp"), so Seaweed binds before disseminating. Queries without
// NOW() are returned unchanged.
func (q *Query) BindNow(nowSeconds int64) *Query {
	if !slices.ContainsFunc(q.Preds, func(p Pred) bool { return p.Val.UsesNow }) {
		return q
	}
	out := q.Clone()
	out.Preds = slices.Clone(q.Preds)
	for i := range out.Preds {
		if out.Preds[i].Val.UsesNow {
			out.Preds[i].Val = Expr{Int: out.Preds[i].Val.Resolve(nowSeconds)}
		}
	}
	return out
}

// Clone returns a copy of the query, which shares its predicates and binds
// a plan of its own.
func (q *Query) Clone() *Query {
	return &Query{Agg: q.Agg, AggCol: q.AggCol, CountAll: q.CountAll, Table: q.Table,
		Preds: q.Preds, Raw: q.Raw, Continuous: q.Continuous, RTTScope: q.RTTScope}
}

// Parse parses a query in the Seaweed SQL subset:
//
//	SELECT <AGG>(<column>|*) FROM <table> [WHERE <col> <op> <expr> [AND ...]]
//
// where AGG is SUM, COUNT, AVG, MIN or MAX; op is =, <>, <, <=, > or >=;
// and expr is an integer literal, a 'string' literal, or NOW() with an
// optional +/- integer offset in seconds.
func Parse(sql string) (*Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("relq: parse %q: %w", sql, err)
	}
	q.Raw = sql
	return q, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(sql string) *Query {
	q, err := Parse(sql)
	if err != nil {
		panic(err)
	}
	return q
}

// ------------------------------------------------------------------- lexer

type tokKind int

const (
	tkIdent tokKind = iota
	tkNumber
	tkString
	tkOp // comparison or arithmetic symbol
	tkLParen
	tkRParen
	tkStar
	tkEOF
)

type token struct {
	kind tokKind
	text string
}

func lex(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(' || c == ')' || c == '*': // tkLParen, tkRParen, tkStar
			toks = append(toks, token{tkLParen + tokKind(strings.IndexByte("()*", c)), s[i : i+1]})
			i++
		case c == '\'':
			j := i + 1
			for j < len(s) && s[j] != '\'' {
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("relq: unterminated string literal")
			}
			toks = append(toks, token{tkString, s[i+1 : j]})
			i = j + 1
		case c == '<' || c == '>': // <, <=, <>, >, >=
			n := 1
			if i+1 < len(s) && (s[i+1] == '=' || c == '<' && s[i+1] == '>') {
				n = 2
			}
			toks = append(toks, token{tkOp, s[i : i+n]})
			i += n
		case c == '=' || c == '+' || c == '-':
			toks = append(toks, token{tkOp, string(c)})
			i++
		case c >= '0' && c <= '9':
			j := i
			for j < len(s) && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			toks = append(toks, token{tkNumber, s[i:j]})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(s) && isIdentPart(s[j]) {
				j++
			}
			toks = append(toks, token{tkIdent, s[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("relq: unexpected character %q", c)
		}
	}
	toks = append(toks, token{tkEOF, ""})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

// ------------------------------------------------------------------ parser

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tkEOF {
		p.pos++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tkIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("expected %s, got %q", kw, t.text)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	aggTok := p.next()
	if aggTok.kind != tkIdent {
		return nil, fmt.Errorf("expected aggregate, got %q", aggTok.text)
	}
	kind, err := agg.ParseKind(strings.ToUpper(aggTok.text))
	if err != nil {
		return nil, err
	}
	q := &Query{Agg: kind}
	if p.next().kind != tkLParen {
		return nil, fmt.Errorf("expected ( after %s", aggTok.text)
	}
	arg := p.next()
	switch {
	case arg.kind == tkStar:
		if kind != agg.Count {
			return nil, fmt.Errorf("%s(*) is not valid", kind)
		}
		q.CountAll = true
	case arg.kind == tkIdent:
		q.AggCol = arg.text
	default:
		return nil, fmt.Errorf("expected column or * in aggregate, got %q", arg.text)
	}
	if p.next().kind != tkRParen {
		return nil, fmt.Errorf("expected ) after aggregate argument")
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != tkIdent {
		return nil, fmt.Errorf("expected table name, got %q", tbl.text)
	}
	q.Table = tbl.text

	if p.peek().kind == tkEOF {
		return q, nil
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	for {
		pred, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		q.Preds = append(q.Preds, pred)
		if p.peek().kind == tkEOF {
			break
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
	}
	return q, nil
}

func (p *parser) parsePred() (Pred, error) {
	col := p.next()
	if col.kind != tkIdent {
		return Pred{}, fmt.Errorf("expected column name, got %q", col.text)
	}
	opTok := p.next()
	if opTok.kind != tkOp {
		return Pred{}, fmt.Errorf("expected comparison operator, got %q", opTok.text)
	}
	op := CmpOp(slices.Index(opSpellings, opTok.text))
	if op < 0 {
		return Pred{}, fmt.Errorf("unknown operator %q", opTok.text)
	}
	val, err := p.parseExpr()
	if err != nil {
		return Pred{}, err
	}
	return Pred{Col: col.text, Op: op, Val: val}, nil
}

func (p *parser) parseExpr() (Expr, error) {
	t := p.next()
	switch {
	case t.kind == tkString:
		return Expr{IsString: true, Str: t.text}, nil
	case t.kind == tkNumber:
		v, err := number(t, "")
		return Expr{Int: v}, err
	case t.kind == tkOp && t.text == "-":
		v, err := number(p.next(), "unary -")
		return Expr{Int: -v}, err
	case t.kind == tkIdent && strings.EqualFold(t.text, "NOW"):
		if p.next().kind != tkLParen || p.next().kind != tkRParen {
			return Expr{}, fmt.Errorf("expected () after NOW")
		}
		if nxt := p.peek(); nxt.kind == tkOp && (nxt.text == "+" || nxt.text == "-") {
			p.next()
			v, err := number(p.next(), "NOW() "+nxt.text)
			if nxt.text == "-" {
				v = -v
			}
			return Expr{UsesNow: true, Int: v}, err
		}
		return Expr{UsesNow: true}, nil
	default:
		return Expr{}, fmt.Errorf("expected literal or NOW(), got %q", t.text)
	}
}

// number parses an integer literal token, which follows after.
func number(t token, after string) (int64, error) {
	if t.kind != tkNumber {
		return 0, fmt.Errorf("expected number after %s, got %q", after, t.text)
	}
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q: %v", t.text, err)
	}
	return v, nil
}
