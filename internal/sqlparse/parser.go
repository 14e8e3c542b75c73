package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/types"
)

// Parser is a recursive-descent SQL parser over the lexer's tokens.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses one SQL statement.
func Parse(sql string) (Stmt, error) {
	toks, err := Lex(sql)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(TokOp, ";")
	if !p.at(TokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	return stmt, nil
}

// ParseSelect parses a SELECT statement specifically.
func ParseSelect(sql string) (*Select, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("sql: not a SELECT statement")
	}
	return sel, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) peek() Token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *Parser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokKind, text string) (Token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		return t, p.errf("expected %q, found %q", text, t.Text)
	}
	p.pos++
	return t, nil
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: pos %d: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch {
	case p.at(TokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(TokKeyword, "EXPLAIN"):
		p.pos++
		analyze := false
		if p.at(TokKeyword, "ANALYZE") {
			p.pos++
			analyze = true
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Explain{Query: sel, Analyze: analyze}, nil
	case p.at(TokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(TokKeyword, "DROP"):
		return p.parseDrop()
	case p.at(TokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(TokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(TokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(TokKeyword, "ANALYZE"):
		p.pos++
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &Analyze{Table: name}, nil
	case p.at(TokKeyword, "REORGANIZE"):
		p.pos++
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &Reorganize{Table: name}, nil
	default:
		return nil, p.errf("unexpected token %q at statement start", p.cur().Text)
	}
}

func (p *Parser) parseIdent() (string, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, found %q", t.Text)
	}
	p.pos++
	return t.Text, nil
}

// parseSelect parses a full SELECT.
func (p *Parser) parseSelect() (*Select, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	sel.Distinct = p.accept(TokKeyword, "DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			item := OrderItem{}
			if p.cur().Kind == TokNumber && (p.peek().Kind != TokOp || isOrderTerminator(p.peek().Text)) {
				n, _ := strconv.Atoi(p.cur().Text)
				item.Position = n
				p.pos++
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item.Expr = e
			}
			if p.accept(TokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		t := p.cur()
		if t.Kind != TokNumber {
			return nil, p.errf("expected number after LIMIT")
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.Text)
		}
		sel.Limit = n
		p.pos++
		if p.accept(TokKeyword, "OFFSET") {
			t := p.cur()
			if t.Kind != TokNumber {
				return nil, p.errf("expected number after OFFSET")
			}
			o, err := strconv.ParseInt(t.Text, 10, 64)
			if err != nil {
				return nil, p.errf("bad OFFSET %q", t.Text)
			}
			sel.Offset = o
			p.pos++
		}
	}
	return sel, nil
}

func isOrderTerminator(op string) bool {
	return op == "," || op == ")" || op == ";"
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	// Qualified star: ident.*
	if p.cur().Kind == TokIdent && p.peek().Kind == TokOp && p.peek().Text == "." {
		save := p.pos
		qual := p.cur().Text
		p.pos += 2
		if p.accept(TokOp, "*") {
			return SelectItem{Star: true, Qualifier: qual}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(TokKeyword, "AS") {
		a, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.cur().Kind == TokIdent {
		item.Alias = p.cur().Text
		p.pos++
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	if p.accept(TokOp, "(") {
		sub, err := p.parseSelect()
		if err != nil {
			return TableRef{}, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return TableRef{}, err
		}
		ref := TableRef{Subquery: sub}
		p.accept(TokKeyword, "AS")
		if p.cur().Kind == TokIdent {
			ref.Alias = p.cur().Text
			p.pos++
		}
		return ref, nil
	}
	name, err := p.parseIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	p.accept(TokKeyword, "AS")
	if p.cur().Kind == TokIdent {
		ref.Alias = p.cur().Text
		p.pos++
	}
	return ref, nil
}

// Expression grammar: OR > AND > NOT > predicate > additive >
// multiplicative > unary > primary.

func (p *Parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &expr.Bin{Op: expr.OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &expr.Bin{Op: expr.OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (expr.Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: e}, nil
	}
	return p.parsePredicate()
}

func (p *Parser) parsePredicate() (expr.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	negate := p.accept(TokKeyword, "NOT")
	switch {
	case p.accept(TokKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &expr.Between{E: left, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.accept(TokKeyword, "LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &expr.Like{E: left, Pattern: pat, Negate: negate}, nil
	case p.accept(TokKeyword, "IN"):
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		if p.at(TokKeyword, "SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &InSubqueryExpr{E: left, Query: sub, Negate: negate}, nil
		}
		var vals []expr.Expr
		for {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return &expr.InList{E: left, Vals: vals, Negate: negate}, nil
	case negate:
		return nil, p.errf("expected BETWEEN, LIKE, or IN after NOT")
	case p.accept(TokKeyword, "IS"):
		neg := p.accept(TokKeyword, "NOT")
		if _, err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &expr.IsNull{E: left, Negate: neg}, nil
	}
	// Plain comparison.
	opTok := p.cur()
	if opTok.Kind == TokOp {
		var op expr.BinOp
		switch opTok.Text {
		case "=":
			op = expr.OpEq
		case "<>", "!=":
			op = expr.OpNe
		case "<":
			op = expr.OpLt
		case "<=":
			op = expr.OpLe
		case ">":
			op = expr.OpGt
		case ">=":
			op = expr.OpGe
		default:
			return left, nil
		}
		p.pos++
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &expr.Bin{Op: op, L: left, R: right}, nil
	}
	return left, nil
}

func (p *Parser) parseAdditive() (expr.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.BinOp
		if p.at(TokOp, "+") {
			op = expr.OpAdd
		} else if p.at(TokOp, "-") {
			op = expr.OpSub
		} else {
			return left, nil
		}
		p.pos++
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		folded, err := foldIntervalArith(op, left, right)
		if err != nil {
			return nil, err
		}
		left = folded
	}
}

func (p *Parser) parseMultiplicative() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.BinOp
		switch {
		case p.at(TokOp, "*"):
			op = expr.OpMul
		case p.at(TokOp, "/"):
			op = expr.OpDiv
		case p.at(TokOp, "%"):
			op = expr.OpMod
		default:
			return left, nil
		}
		p.pos++
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &expr.Bin{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseUnary() (expr.Expr, error) {
	if p.accept(TokOp, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if c, ok := e.(*expr.Const); ok {
			switch c.V.K {
			case types.KindInt:
				return &expr.Const{V: types.NewInt(-c.V.I)}, nil
			case types.KindFloat:
				return &expr.Const{V: types.NewFloat(-c.V.F)}, nil
			}
		}
		return &expr.Neg{E: e}, nil
	}
	p.accept(TokOp, "+")
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (expr.Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.pos++
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &expr.Const{V: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &expr.Const{V: types.NewInt(i)}, nil
	case t.Kind == TokString:
		p.pos++
		return &expr.Const{V: types.NewString(t.Text)}, nil
	case p.accept(TokKeyword, "NULL"):
		return &expr.Const{V: types.Null}, nil
	case p.accept(TokKeyword, "TRUE"):
		return &expr.Const{V: types.NewBool(true)}, nil
	case p.accept(TokKeyword, "FALSE"):
		return &expr.Const{V: types.NewBool(false)}, nil
	case p.accept(TokKeyword, "DATE"):
		s := p.cur()
		if s.Kind != TokString {
			return nil, p.errf("expected date string after DATE")
		}
		p.pos++
		v, err := types.DateFromString(s.Text)
		if err != nil {
			return nil, err
		}
		return &expr.Const{V: v}, nil
	case p.accept(TokKeyword, "INTERVAL"):
		s := p.cur()
		if s.Kind != TokString {
			return nil, p.errf("expected quantity string after INTERVAL")
		}
		p.pos++
		n, err := strconv.ParseInt(strings.TrimSpace(s.Text), 10, 64)
		if err != nil {
			return nil, p.errf("bad interval quantity %q", s.Text)
		}
		unit := p.cur()
		if unit.Kind != TokKeyword || (unit.Text != "DAY" && unit.Text != "MONTH" && unit.Text != "YEAR") {
			return nil, p.errf("expected DAY, MONTH, or YEAR")
		}
		p.pos++
		return &intervalExpr{n: n, unit: unit.Text}, nil
	case p.accept(TokKeyword, "CASE"):
		return p.parseCase()
	case p.accept(TokKeyword, "EXISTS"):
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Query: sub}, nil
	case p.accept(TokKeyword, "EXTRACT"):
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		field := p.cur()
		if field.Kind != TokKeyword || (field.Text != "YEAR" && field.Text != "MONTH") {
			return nil, p.errf("EXTRACT supports YEAR and MONTH")
		}
		p.pos++
		if _, err := p.expect(TokKeyword, "FROM"); err != nil {
			return nil, err
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return &expr.Func{Name: "EXTRACT_" + field.Text, Args: []expr.Expr{arg}}, nil
	case p.accept(TokKeyword, "SUBSTRING"):
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		var from, length expr.Expr
		if p.accept(TokKeyword, "FROM") {
			if from, err = p.parseExpr(); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokKeyword, "FOR"); err != nil {
				return nil, err
			}
			if length, err = p.parseExpr(); err != nil {
				return nil, err
			}
		} else {
			if _, err := p.expect(TokOp, ","); err != nil {
				return nil, err
			}
			if from, err = p.parseExpr(); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ","); err != nil {
				return nil, err
			}
			if length, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return &expr.Func{Name: "SUBSTRING", Args: []expr.Expr{arg, from, length}}, nil
	case p.accept(TokOp, "("):
		if p.at(TokKeyword, "SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Query: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		return p.parseIdentExpr()
	default:
		return nil, p.errf("unexpected token %q in expression", t.Text)
	}
}

// parseIdentExpr handles column references and function calls.
func (p *Parser) parseIdentExpr() (expr.Expr, error) {
	name, _ := p.parseIdent()
	// Function call.
	if p.at(TokOp, "(") {
		p.pos++
		upper := strings.ToUpper(name)
		if upper == "COUNT" && p.accept(TokOp, "*") {
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &expr.Func{Name: "COUNT_STAR"}, nil
		}
		distinct := p.accept(TokKeyword, "DISTINCT")
		var args []expr.Expr
		if !p.at(TokOp, ")") {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(TokOp, ",") {
					break
				}
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		if distinct {
			upper += "_DISTINCT"
		}
		return &expr.Func{Name: upper, Args: args}, nil
	}
	// Qualified column.
	if p.at(TokOp, ".") {
		p.pos++
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &expr.Col{Index: -1, Name: name + "." + col}, nil
	}
	return &expr.Col{Index: -1, Name: name}, nil
}

func (p *Parser) parseCase() (expr.Expr, error) {
	c := &expr.Case{}
	for p.accept(TokKeyword, "WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, expr.When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.accept(TokKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if _, err := p.expect(TokKeyword, "END"); err != nil {
		return nil, err
	}
	return c, nil
}

// intervalExpr is a parse-time-only node for INTERVAL literals: date
// arithmetic folds it away, and one left anywhere else fails the query.
type intervalExpr struct {
	n    int64
	unit string
}

// Eval fails: an interval that was not folded has no value of its own.
func (i *intervalExpr) Eval(types.Row) (types.Value, error) {
	return types.Null, fmt.Errorf("sql: %s is only valid on the right of a date + or -", i)
}

// String renders the interval.
func (i *intervalExpr) String() string {
	return fmt.Sprintf("INTERVAL '%d' %s", i.n, i.unit)
}

// foldIntervalArith resolves date ± interval at parse time, using calendar
// arithmetic when the date side is a literal.
func foldIntervalArith(op expr.BinOp, left, right expr.Expr) (expr.Expr, error) {
	iv, rightIsInterval := right.(*intervalExpr)
	if !rightIsInterval {
		if _, leftIsInterval := left.(*intervalExpr); leftIsInterval {
			return nil, fmt.Errorf("sql: interval must appear on the right of +/-")
		}
		return &expr.Bin{Op: op, L: left, R: right}, nil
	}
	if op != expr.OpAdd && op != expr.OpSub {
		return nil, fmt.Errorf("sql: intervals support only + and -")
	}
	sign := int64(1)
	if op == expr.OpSub {
		sign = -1
	}
	if c, ok := left.(*expr.Const); ok && c.V.K == types.KindDate {
		t := c.V.Time()
		switch iv.unit {
		case "DAY":
			t = t.AddDate(0, 0, int(sign*iv.n))
		case "MONTH":
			t = t.AddDate(0, int(sign*iv.n), 0)
		case "YEAR":
			t = t.AddDate(int(sign*iv.n), 0, 0)
		}
		return &expr.Const{V: types.NewDate(t.Unix() / 86400)}, nil
	}
	// Non-literal date: only DAY intervals convert exactly.
	if iv.unit != "DAY" {
		return nil, fmt.Errorf("sql: %s intervals require a literal date", iv.unit)
	}
	return &expr.Bin{Op: op, L: left, R: &expr.Const{V: types.NewInt(iv.n)}}, nil
}

func (p *Parser) parseCreate() (Stmt, error) {
	p.pos++ // CREATE
	switch {
	case p.accept(TokKeyword, "TABLE"):
		return p.parseCreateTable()
	case p.accept(TokKeyword, "INDEX"):
		return p.parseCreateIndex()
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *Parser) parseCreateTable() (Stmt, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name, PartKind: "HASH"}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	for {
		colName, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		typeTok := p.cur()
		if typeTok.Kind != TokIdent && typeTok.Kind != TokKeyword {
			return nil, p.errf("expected type for column %s", colName)
		}
		p.pos++
		// Swallow (n) and (p, s) type parameters.
		if p.accept(TokOp, "(") {
			for !p.accept(TokOp, ")") {
				p.pos++
				if p.at(TokEOF, "") {
					return nil, p.errf("unterminated type parameters")
				}
			}
		}
		kind, err := types.ParseKind(typeTok.Text)
		if err != nil {
			return nil, err
		}
		ct.Cols = append(ct.Cols, types.Column{Name: colName, Kind: kind})
		if p.accept(TokOp, ",") {
			continue
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		break
	}
	for {
		switch {
		case p.accept(TokKeyword, "PARTITION"):
			if _, err := p.expect(TokKeyword, "BY"); err != nil {
				return nil, err
			}
			switch {
			case p.accept(TokKeyword, "HASH"):
				ct.PartKind = "HASH"
				cols, err := p.parseParenIdentList()
				if err != nil {
					return nil, err
				}
				ct.PartCols = cols
			case p.accept(TokKeyword, "RANGE"):
				ct.PartKind = "RANGE"
				cols, err := p.parseParenIdentList()
				if err != nil {
					return nil, err
				}
				ct.PartCols = cols
				if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
					return nil, err
				}
				if _, err := p.expect(TokOp, "("); err != nil {
					return nil, err
				}
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					c, ok := e.(*expr.Const)
					if !ok {
						return nil, p.errf("range bounds must be literals")
					}
					ct.RangeBounds = append(ct.RangeBounds, c.V)
					if !p.accept(TokOp, ",") {
						break
					}
				}
				if _, err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
			case p.accept(TokKeyword, "REPLICATED"):
				ct.PartKind = "REPLICATED"
			default:
				return nil, p.errf("expected HASH, RANGE, or REPLICATED")
			}
		case p.accept(TokKeyword, "COLUMNAR"):
			ct.Columnar = true
		case p.accept(TokKeyword, "CLUSTER"):
			if _, err := p.expect(TokKeyword, "BY"); err != nil {
				return nil, err
			}
			cols, err := p.parseParenIdentList()
			if err != nil {
				return nil, err
			}
			ct.ClusterCols = cols
		default:
			if len(ct.PartCols) == 0 && ct.PartKind == "HASH" {
				// Default: hash on the first column.
				ct.PartCols = []string{ct.Cols[0].Name}
			}
			return ct, nil
		}
	}
}

func (p *Parser) parseParenIdentList() ([]string, error) {
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return cols, nil
}

func (p *Parser) parseCreateIndex() (Stmt, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	cols, err := p.parseParenIdentList()
	if err != nil {
		return nil, err
	}
	// The B+-tree is the one index kind; USING BTREE is accepted and implied.
	if p.accept(TokKeyword, "USING") {
		if _, err := p.expect(TokKeyword, "BTREE"); err != nil {
			return nil, err
		}
	}
	return &CreateIndex{Name: name, Table: table, Cols: cols}, nil
}

func (p *Parser) parseDrop() (Stmt, error) {
	p.pos++ // DROP
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

func (p *Parser) parseInsert() (Stmt, error) {
	p.pos++ // INSERT
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	for {
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		var row []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Stmt, error) {
	p.pos++ // UPDATE
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	up := &Update{Table: table, Set: map[string]expr.Expr{}}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set[col] = e
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *Parser) parseDelete() (Stmt, error) {
	p.pos++ // DELETE
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}
