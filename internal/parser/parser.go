package parser

import (
	"fmt"
	"strconv"
	"strings"

	"piql/internal/value"
)

// Parse parses a single PIQL statement (SELECT, INSERT, UPDATE, DELETE,
// or CREATE TABLE).
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errorf("unexpected %q after statement", p.peek().text)
	}
	return stmt, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
	// params counts the positional '?' parameters read so far: each is
	// numbered as it is read, 1-based, in textual order across the whole
	// statement. Bracketed parameters keep their explicit indexes.
	params int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// at reports whether the current token matches kind (and text, if given).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the current token if it matches, reporting success.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a required token or returns a positioned error.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{
			tokIdent: "identifier", tokNumber: "number", tokString: "string",
		}[kind]
	}
	return token{}, p.errorf("expected %s, found %q", want, p.peek().text)
}

func (p *parser) errorf(format string, args ...any) error {
	return &syntaxError{pos: p.peek().pos, msg: fmt.Sprintf(format, args...)}
}

// syntaxError is a lexer or parser error at a byte offset of the source.
type syntaxError struct {
	pos int
	msg string
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("syntax error at offset %d: %s", e.pos, e.msg)
}

// list reads one or more items separated by commas.
func list[T any](p *parser, item func() (T, error)) ([]T, error) {
	var items []T
	for {
		it, err := item()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if !p.accept(tokSymbol, ",") {
			return items, nil
		}
	}
}

// parenList reads a parenthesised list: ( item [, item]... ).
func parenList[T any](p *parser, item func() (T, error)) ([]T, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	items, err := list(p, item)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return items, nil
}

// positiveInt reads the positive integer literal what requires (LIMIT,
// PAGINATE, CARDINALITY LIMIT, a VARCHAR length, a parameter index),
// reporting a bad one at its own offset.
func (p *parser) positiveInt(what string) (int, error) {
	if !p.at(tokNumber, "") {
		_, err := p.expect(tokNumber, "")
		return 0, err
	}
	if n, err := strconv.Atoi(p.peek().text); err == nil && n > 0 {
		p.next()
		return n, nil
	}
	return 0, p.errorf("%s requires a positive integer literal, got %q", what, p.peek().text)
}

// identKeywords are keywords that may double as identifiers (column and
// table names) — mostly type names, so schemas like SCADr's
// thoughts(timestamp) parse.
var identKeywords = map[string]bool{
	"INT": true, "BIGINT": true, "VARCHAR": true, "TEXT": true,
	"BOOLEAN": true, "DOUBLE": true, "FLOAT": true, "BLOB": true,
	"TIMESTAMP": true, "KEY": true, "TOKEN": true,
}

// expectIdent consumes an identifier, also accepting keywords that are
// legal identifiers in context, and returns its source spelling.
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		return p.next().text, nil
	}
	if t.kind == tokKeyword && identKeywords[t.text] {
		p.next()
		// Keyword tokens are upper-cased; restore the source spelling.
		return p.src[t.pos : t.pos+len(t.text)], nil
	}
	return "", p.errorf("expected identifier, found %q", t.text)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(tokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(tokKeyword, "CREATE"):
		return p.parseCreate()
	default:
		return nil, p.errorf("expected a statement, found %q", p.peek().text)
	}
}

// --- SELECT ---

func (p *parser) parseSelect() (*Select, error) {
	p.next() // SELECT
	s := &Select{}
	var err error
	if s.Items, err = list(p, p.parseSelectItem); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	// Tables are separated by ',' or JOIN; a JOIN's ON conditions join
	// the WHERE conjunction.
	for joined, more := false, true; more; more = joined || p.accept(tokSymbol, ",") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, ref)
		if joined && p.accept(tokKeyword, "ON") {
			if s.Where, err = p.parsePredicates(s.Where); err != nil {
				return nil, err
			}
		}
		joined = p.accept(tokKeyword, "JOIN")
	}
	if s.Where, err = p.parseWhere(s.Where); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		if s.GroupBy, err = list(p, p.parseColumnRef); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		if s.OrderBy, err = list(p, p.parseOrderItem); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		if s.Limit, err = p.positiveInt("LIMIT"); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "PAGINATE") {
		if s.Paginate, err = p.positiveInt("PAGINATE"); err != nil {
			return nil, err
		}
	}
	if s.Limit > 0 && s.Paginate > 0 {
		return nil, p.errorf("LIMIT and PAGINATE are mutually exclusive")
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	var err error
	// Aggregates.
	for agg := AggCount; agg <= AggMax; agg++ {
		if !p.accept(tokKeyword, agg.String()) {
			continue
		}
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return SelectItem{}, err
		}
		item := SelectItem{Agg: agg}
		if p.accept(tokSymbol, "*") {
			if agg != AggCount {
				return SelectItem{}, p.errorf("%s(*) is not valid", agg)
			}
			item.AggStar = true
		} else if item.Col, err = p.parseColumnRef(); err != nil {
			return SelectItem{}, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return SelectItem{}, err
		}
		item.Alias, err = p.parseOptionalAlias()
		return item, err
	}
	col, err := p.parseColumnRef()
	if err != nil {
		return SelectItem{}, err
	}
	// table.* form.
	if col.Column == "*" {
		return SelectItem{Star: true, StarOf: col.Table}, nil
	}
	alias, err := p.parseOptionalAlias()
	return SelectItem{Col: col, Alias: alias}, err
}

// parseOptionalAlias reads [AS] alias: after AS the alias is required.
func (p *parser) parseOptionalAlias() (string, error) {
	if p.accept(tokKeyword, "AS") {
		return p.expectIdent()
	}
	if p.at(tokIdent, "") {
		return p.next().text, nil
	}
	return "", nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	alias, err := p.parseOptionalAlias()
	return TableRef{Table: name, Alias: alias}, err
}

// parseColumnRef parses ident[.ident] or ident.* (Column == "*").
func (p *parser) parseColumnRef() (ColumnRef, error) {
	first, err := p.expectIdent()
	if err != nil {
		return ColumnRef{}, err
	}
	if p.accept(tokSymbol, ".") {
		if p.accept(tokSymbol, "*") {
			return ColumnRef{Table: first, Column: "*"}, nil
		}
		second, err := p.expectIdent()
		if err != nil {
			return ColumnRef{}, err
		}
		return ColumnRef{Table: first, Column: second}, nil
	}
	return ColumnRef{Column: first}, nil
}

// parseOrderItem parses col [ASC | DESC].
func (p *parser) parseOrderItem() (OrderItem, error) {
	col, err := p.parseColumnRef()
	if err != nil {
		return OrderItem{}, err
	}
	return OrderItem{Col: col, Desc: p.parseDesc()}, nil
}

// parseDesc reads an optional ASC or DESC, reporting whether it was DESC.
func (p *parser) parseDesc() bool {
	if p.accept(tokKeyword, "DESC") {
		return true
	}
	p.accept(tokKeyword, "ASC")
	return false
}

// parseWhere appends the conjuncts of an optional WHERE clause to where.
func (p *parser) parseWhere(where []Predicate) ([]Predicate, error) {
	if !p.accept(tokKeyword, "WHERE") {
		return where, nil
	}
	return p.parsePredicates(where)
}

// parsePredicates appends a conjunction of comparisons joined with AND
// to preds. OR is rejected: PIQL restricts queries to conjunctive
// predicates so bounds remain statically computable.
func (p *parser) parsePredicates(preds []Predicate) ([]Predicate, error) {
	for {
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pred)
		if p.accept(tokKeyword, "AND") {
			continue
		}
		if p.at(tokKeyword, "OR") {
			return nil, p.errorf("OR is not supported in PIQL; rewrite as separate queries or an IN list")
		}
		return preds, nil
	}
}

func (p *parser) parsePredicate() (Predicate, error) {
	left, err := p.parseColumnRef()
	if err != nil {
		return Predicate{}, err
	}
	var op CompareOp
	switch {
	case p.accept(tokSymbol, "="):
		op = OpEq
	case p.accept(tokSymbol, "!="), p.accept(tokSymbol, "<>"):
		op = OpNe
	case p.accept(tokSymbol, "<="):
		op = OpLe
	case p.accept(tokSymbol, "<"):
		op = OpLt
	case p.accept(tokSymbol, ">="):
		op = OpGe
	case p.accept(tokSymbol, ">"):
		op = OpGt
	case p.accept(tokKeyword, "LIKE"):
		op = OpLike
	case p.accept(tokKeyword, "CONTAINS"):
		op = OpContains
	case p.accept(tokKeyword, "IN"):
		in, err := parenList(p, p.parseExpr)
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Left: left, Op: OpEq, InList: in}, nil
	default:
		return Predicate{}, p.errorf("expected comparison operator, found %q", p.peek().text)
	}
	right, err := p.parseExpr()
	if err != nil {
		return Predicate{}, err
	}
	return Predicate{Left: left, Op: op, Right: right}, nil
}

// parseExpr parses a literal, parameter, or column reference.
func (p *parser) parseExpr() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		return numberLiteral(t.text, false)
	case t.kind == tokSymbol && t.text == "-":
		p.next()
		num, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		return numberLiteral(num.text, true)
	case t.kind == tokString:
		p.next()
		return Literal{Val: value.Str(t.text)}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.next()
		return Literal{Val: value.Bool(true)}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.next()
		return Literal{Val: value.Bool(false)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		return Literal{Val: value.Null()}, nil
	case t.kind == tokParam:
		p.next()
		p.params++
		return Param{Index: p.params}, nil // positional; numbered as read
	case t.kind == tokSymbol && t.text == "[":
		return p.parseBracketParam()
	case t.kind == tokIdent:
		return p.parseColumnRef()
	default:
		return nil, p.errorf("expected an expression, found %q", t.text)
	}
}

func numberLiteral(text string, neg bool) (Expr, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed number %q", text)
		}
		if neg {
			f = -f
		}
		return Literal{Val: value.Float(f)}, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("malformed number %q", text)
	}
	if neg {
		i = -i
	}
	return Literal{Val: value.Int(i)}, nil
}

// parseBracketParam parses the paper's parameter syntax: [1: titleWord]
// or [1].
func (p *parser) parseBracketParam() (Expr, error) {
	p.next() // [
	idx, err := p.positiveInt("parameter index")
	if err != nil {
		return nil, err
	}
	param := Param{Index: idx}
	if p.accept(tokSymbol, ":") {
		if param.Name, err = p.expectIdent(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokSymbol, "]"); err != nil {
		return nil, err
	}
	return param, nil
}

// --- INSERT / UPDATE / DELETE ---

func (p *parser) parseInsert() (*Insert, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.at(tokSymbol, "(") {
		if ins.Columns, err = parenList(p, p.expectIdent); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	if ins.Values, err = parenList(p, p.parseExpr); err != nil {
		return nil, err
	}
	if len(ins.Columns) > 0 && len(ins.Columns) != len(ins.Values) {
		return nil, p.errorf("INSERT has %d columns but %d values", len(ins.Columns), len(ins.Values))
	}
	return ins, nil
}

func (p *parser) parseUpdate() (*Update, error) {
	p.next() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	upd := &Update{Table: table}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	if upd.Set, err = list(p, p.parseAssignment); err != nil {
		return nil, err
	}
	if upd.Where, err = p.parseWhere(nil); err != nil {
		return nil, err
	}
	return upd, nil
}

// parseAssignment parses col = expr.
func (p *parser) parseAssignment() (Assignment, error) {
	col, err := p.expectIdent()
	if err != nil {
		return Assignment{}, err
	}
	if _, err := p.expect(tokSymbol, "="); err != nil {
		return Assignment{}, err
	}
	e, err := p.parseExpr()
	return Assignment{Column: col, Value: e}, err
}

func (p *parser) parseDelete() (*Delete, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if del.Where, err = p.parseWhere(nil); err != nil {
		return nil, err
	}
	return del, nil
}
