package sql

import (
	"fmt"
	"strconv"
	"strings"

	"lambdadb/internal/expr"
	"lambdadb/internal/types"
)

// Parse parses a semicolon-separated sequence of SQL statements.
func Parse(src string) ([]Statement, error) {
	stmts, _, err := ParseScript(src)
	return stmts, err
}

// ParseScript is Parse that also returns each statement's source text —
// from its first token up to the ';' or end of input after it, trimmed — so
// texts[i] is the text of stmts[i] (the engine's query log shows it).
func ParseScript(src string) (stmts []Statement, texts []string, err error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{src: src, toks: toks}
	for {
		for p.peek().kind == tokSymbol && p.peek().text == ";" {
			p.advance()
		}
		if p.peek().kind == tokEOF {
			return stmts, texts, nil
		}
		start := p.peek().pos
		st, err := p.parseStatement()
		if err != nil {
			return nil, nil, err
		}
		if t := p.peek(); t.kind != tokEOF && !(t.kind == tokSymbol && t.text == ";") {
			return nil, nil, p.errorf("unexpected %q after statement", t.text)
		}
		stmts = append(stmts, st)
		texts = append(texts, p.textFrom(start))
	}
}

// textFrom returns the source text from byte offset start up to the next
// token — the ';' or end of input after a statement — trimmed.
func (p *parser) textFrom(start int) string {
	return strings.TrimSpace(p.src[start:p.peek().pos])
}

// ParseOne parses exactly one statement.
func ParseOne(src string) (Statement, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return token{kind: tokEOF}
}
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return &lexError{msg: fmt.Sprintf(format, args...), pos: p.peek().pos, src: p.src}
}

// matchKeyword consumes the keyword if present.
func (p *parser) matchKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.matchKeyword(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

// matchSymbol consumes the symbol if present.
func (p *parser) matchSymbol(s string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.matchSymbol(s) {
		return p.errorf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

// expectIdent consumes and returns an identifier (quoted or plain).
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind == tokIdent || t.kind == tokQuotedIdent {
		p.advance()
		return t.text, nil
	}
	return "", p.errorf("expected identifier, got %q", t.text)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected statement, got %q", t.text)
	}
	switch t.text {
	case "CREATE":
		if n := p.peek2(); n.kind == tokKeyword && n.text == "INDEX" {
			return p.parseCreateIndex()
		}
		return p.parseCreateTable()
	case "DROP":
		if n := p.peek2(); n.kind == tokKeyword && n.text == "INDEX" {
			return p.parseDropIndex()
		}
		return p.parseDropTable()
	case "ANALYZE":
		p.advance()
		a := &Analyze{}
		if t := p.peek(); t.kind == tokIdent || t.kind == tokQuotedIdent {
			a.Table = t.text
			p.advance()
		}
		return a, nil
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "SELECT", "WITH":
		return p.parseSelect()
	case "COPY":
		return p.parseCopy()
	case "EXPLAIN":
		p.advance()
		analyze := p.matchKeyword("ANALYZE")
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		switch st.(type) {
		case *Select, *Insert, *Update, *Delete:
		default:
			return nil, p.errorf("EXPLAIN supports SELECT, INSERT, UPDATE, and DELETE statements")
		}
		return &Explain{Stmt: st, Analyze: analyze}, nil
	case "BEGIN":
		p.advance()
		return &Begin{}, nil
	case "COMMIT":
		p.advance()
		return &Commit{}, nil
	case "ROLLBACK":
		p.advance()
		return &Rollback{}, nil
	case "CHECKPOINT":
		p.advance()
		return &Checkpoint{}, nil
	case "PREPARE":
		return p.parsePrepare()
	case "EXECUTE":
		return p.parseExecute()
	case "DEALLOCATE":
		return p.parseDeallocate()
	case "PROMOTE":
		p.advance()
		return &Promote{}, nil
	case "FOLLOW":
		return p.parseFollow()
	case "WAIT":
		return p.parseWaitForClock()
	}
	return nil, p.errorf("unsupported statement %q", t.text)
}

// parseFollow parses FOLLOW 'host:port'.
func (p *parser) parseFollow() (Statement, error) {
	p.advance() // FOLLOW
	t := p.peek()
	if t.kind != tokString {
		return nil, p.errorf("expected a quoted primary address after FOLLOW, got %q", t.text)
	}
	p.advance()
	if t.text == "" {
		return nil, p.errorf("FOLLOW address must not be empty")
	}
	return &Follow{Addr: t.text}, nil
}

// parseWaitForClock parses WAIT FOR CLOCK <n>. FOR and CLOCK are matched
// as plain identifiers, not keywords, to keep them usable as column and
// table names everywhere else.
func (p *parser) parseWaitForClock() (Statement, error) {
	p.advance() // WAIT
	for _, word := range []string{"for", "clock"} {
		t := p.peek()
		if t.kind != tokIdent || t.text != word {
			return nil, p.errorf("expected %s in WAIT FOR CLOCK, got %q", strings.ToUpper(word), t.text)
		}
		p.advance()
	}
	t := p.peek()
	if t.kind != tokNumber {
		return nil, p.errorf("expected a clock value after WAIT FOR CLOCK, got %q", t.text)
	}
	n, err := strconv.ParseUint(t.text, 10, 64)
	if err != nil {
		return nil, p.errorf("bad clock value %q: must be a non-negative integer", t.text)
	}
	p.advance()
	return &WaitForClock{Clock: n}, nil
}

// parsePrepare parses PREPARE name [(TYPE, ...)] AS <stmt>.
func (p *parser) parsePrepare() (Statement, error) {
	p.advance() // PREPARE
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	var declared []types.Type
	if p.matchSymbol("(") {
		for {
			typeName, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			ct, err := types.ParseType(typeName)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			declared = append(declared, ct)
			if p.matchSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	start := p.peek().pos
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	switch st.(type) {
	case *Select, *Insert, *Update, *Delete:
	default:
		return nil, p.errorf("PREPARE supports SELECT, INSERT, UPDATE, and DELETE statements")
	}
	return &Prepare{Name: name, Types: declared, Stmt: st, Text: p.textFrom(start)}, nil
}

// parseExecute parses EXECUTE name [(expr, ...)].
func (p *parser) parseExecute() (Statement, error) {
	p.advance() // EXECUTE
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ex := &Execute{Name: name}
	if p.matchSymbol("(") {
		if !p.matchSymbol(")") {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				ex.Args = append(ex.Args, e)
				if p.matchSymbol(",") {
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
	}
	return ex, nil
}

// parseDeallocate parses DEALLOCATE [name | ALL].
func (p *parser) parseDeallocate() (Statement, error) {
	p.advance() // DEALLOCATE
	if p.matchKeyword("ALL") {
		return &Deallocate{All: true}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &Deallocate{Name: name}, nil
}

func (p *parser) parseCreateTable() (Statement, error) {
	p.advance() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ifNotExists := false
	if p.matchKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if !p.matchKeyword("EXISTS") {
			return nil, p.errorf("expected EXISTS")
		}
		ifNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var schema types.Schema
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typeName, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		ct, err := types.ParseType(typeName)
		if err != nil {
			return nil, p.errorf("%v", err)
		}
		schema = append(schema, types.ColumnInfo{Name: col, Type: ct})
		// Tolerate and ignore PRIMARY KEY / NOT NULL column suffixes.
		for {
			if p.matchKeyword("PRIMARY") {
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				continue
			}
			if p.matchKeyword("NOT") {
				if !p.matchKeyword("NULL") {
					return nil, p.errorf("expected NULL after NOT")
				}
				continue
			}
			break
		}
		if p.matchSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Schema: schema, IfNotExists: ifNotExists}, nil
}

// parseTypeName reads a (possibly parameterized) type name like
// VARCHAR(500) or DOUBLE PRECISION, returning its canonical spelling.
func (p *parser) parseTypeName() (string, error) {
	t := p.peek()
	if t.kind != tokIdent && t.kind != tokKeyword {
		return "", p.errorf("expected type name, got %q", t.text)
	}
	p.advance()
	name := strings.ToUpper(t.text)
	if name == "DOUBLE" {
		if n := p.peek(); n.kind == tokIdent && strings.EqualFold(n.text, "precision") {
			p.advance()
		}
	}
	// Skip length parameters: VARCHAR(500), DECIMAL(10,2).
	if p.matchSymbol("(") {
		for !p.matchSymbol(")") {
			if p.peek().kind == tokEOF {
				return "", p.errorf("unterminated type parameter list")
			}
			p.advance()
		}
	}
	return name, nil
}

// parseCopy parses COPY table FROM 'path' [WITH HEADER] [DELIMITER 'c'].
func (p *parser) parseCopy() (Statement, error) {
	p.advance() // COPY
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != tokString {
		return nil, p.errorf("COPY expects a quoted file path, got %q", t.text)
	}
	p.advance()
	cp := &Copy{Table: table, Path: t.text}
	for {
		switch {
		case p.matchKeyword("WITH"):
			// WITH introduces the option list; loop continues.
		case p.matchKeyword("HEADER"):
			cp.Header = true
		case p.matchKeyword("DELIMITER"):
			d := p.peek()
			if d.kind != tokString || len(d.text) != 1 {
				return nil, p.errorf("DELIMITER expects a one-character string")
			}
			p.advance()
			cp.Delimiter = d.text[0]
		default:
			return cp, nil
		}
	}
}

func (p *parser) parseDropTable() (Statement, error) {
	p.advance() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ifExists := false
	if p.matchKeyword("IF") {
		if !p.matchKeyword("EXISTS") {
			return nil, p.errorf("expected EXISTS")
		}
		ifExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name, IfExists: ifExists}, nil
}

// parseCreateIndex parses CREATE INDEX [IF NOT EXISTS] name ON table(col)
// [USING HASH|ORDERED].
func (p *parser) parseCreateIndex() (Statement, error) {
	p.advance() // CREATE
	p.advance() // INDEX
	ifNotExists := false
	if p.matchKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if !p.matchKeyword("EXISTS") {
			return nil, p.errorf("expected EXISTS")
		}
		ifNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	column, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	kind := ""
	if p.matchKeyword("USING") {
		t := p.peek()
		if t.kind != tokIdent && t.kind != tokKeyword {
			return nil, p.errorf("expected index kind after USING, got %q", t.text)
		}
		switch strings.ToUpper(t.text) {
		case "HASH", "ORDERED", "BTREE":
			kind = strings.ToUpper(t.text)
			if kind == "BTREE" {
				kind = "ORDERED" // accepted as a synonym
			}
		default:
			return nil, p.errorf("unknown index kind %q (want HASH or ORDERED)", t.text)
		}
		p.advance()
	}
	return &CreateIndex{Name: name, Table: table, Column: column, Kind: kind, IfNotExists: ifNotExists}, nil
}

// parseDropIndex parses DROP INDEX [IF EXISTS] name.
func (p *parser) parseDropIndex() (Statement, error) {
	p.advance() // DROP
	p.advance() // INDEX
	ifExists := false
	if p.matchKeyword("IF") {
		if !p.matchKeyword("EXISTS") {
			return nil, p.errorf("expected EXISTS")
		}
		ifExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropIndex{Name: name, IfExists: ifExists}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	if p.matchSymbol("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.matchSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if p.matchKeyword("VALUES") {
		for {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var row []expr.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.matchSymbol(",") {
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if p.matchSymbol(",") {
				continue
			}
			break
		}
		return ins, nil
	}
	if t := p.peek(); t.kind == tokKeyword && (t.text == "SELECT" || t.text == "WITH") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = q.(*Select)
		return ins, nil
	}
	return nil, p.errorf("expected VALUES or SELECT in INSERT")
}

func (p *parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := &Update{Table: name}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Value: val})
		if p.matchSymbol(",") {
			continue
		}
		break
	}
	if p.matchKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: name}
	if p.matchKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *parser) parseSelect() (Statement, error) {
	sel := &Select{}
	if p.matchKeyword("WITH") {
		recursive := p.matchKeyword("RECURSIVE")
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cte := CTE{Name: name, Recursive: recursive}
			if p.matchSymbol("(") {
				for {
					col, err := p.expectIdent()
					if err != nil {
						return nil, err
					}
					cte.Columns = append(cte.Columns, col)
					if p.matchSymbol(",") {
						continue
					}
					break
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			cte.Query = sub.(*Select)
			sel.With = append(sel.With, cte)
			if p.matchSymbol(",") {
				continue
			}
			break
		}
	}
	body, err := p.parseQueryExpr()
	if err != nil {
		return nil, err
	}
	sel.Body = body
	if p.matchKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.matchKeyword("DESC") {
				item.Desc = true
			} else {
				p.matchKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.matchSymbol(",") {
				continue
			}
			break
		}
	}
	if p.matchKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.matchKeyword("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}
	return sel, nil
}

func (p *parser) parseQueryExpr() (QueryExpr, error) {
	left, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	for p.matchKeyword("UNION") {
		all := p.matchKeyword("ALL")
		right, err := p.parseQueryTerm()
		if err != nil {
			return nil, err
		}
		left = &SetOp{All: all, L: left, R: right}
	}
	return left, nil
}

// parseQueryTerm parses a SELECT core or a parenthesized query expression.
func (p *parser) parseQueryTerm() (QueryExpr, error) {
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.advance()
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return q, nil
	}
	return p.parseSelectCore()
}

func (p *parser) parseSelectCore() (QueryExpr, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	core := &SelectCore{}
	if p.matchKeyword("DISTINCT") {
		core.Distinct = true
	} else {
		p.matchKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		core.Items = append(core.Items, item)
		if p.matchSymbol(",") {
			continue
		}
		break
	}
	if p.matchKeyword("FROM") {
		from, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		core.From = from
	}
	if p.matchKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Where = w
	}
	if p.matchKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			core.GroupBy = append(core.GroupBy, e)
			if p.matchSymbol(",") {
				continue
			}
			break
		}
	}
	if p.matchKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Having = h
	}
	return core, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	// t.* form.
	if p.peek().kind == tokIdent && p.peek2().kind == tokSymbol && p.peek2().text == "." {
		if p.pos+2 < len(p.toks) && p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
			tbl := p.advance().text
			p.advance() // .
			p.advance() // *
			return SelectItem{TableStar: tbl}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.matchKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if t := p.peek(); t.kind == tokIdent || t.kind == tokQuotedIdent {
		item.Alias = t.text
		p.advance()
	}
	return item, nil
}

// tableFuncNames are identifiers in FROM that denote table functions.
var tableFuncNames = map[string]bool{
	"kmeans": true, "kmeans_assign": true,
	"pagerank": true, "page": false, // "page rank" handled below
	"naive_bayes_train": true, "naive_bayes_predict": true,
}

func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parseTableFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.matchSymbol(","):
			right, err := p.parseTableFactor()
			if err != nil {
				return nil, err
			}
			left = &Join{Type: CrossJoin, L: left, R: right}
		case p.matchKeyword("CROSS"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseTableFactor()
			if err != nil {
				return nil, err
			}
			left = &Join{Type: CrossJoin, L: left, R: right}
		case p.peekJoin():
			jt := InnerJoin
			if p.matchKeyword("LEFT") {
				p.matchKeyword("OUTER")
				jt = LeftJoin
			} else {
				p.matchKeyword("INNER")
			}
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			right, err := p.parseTableFactor()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			left = &Join{Type: jt, L: left, R: right, On: cond}
		default:
			return left, nil
		}
	}
}

func (p *parser) peekJoin() bool {
	t := p.peek()
	return t.kind == tokKeyword && (t.text == "JOIN" || t.text == "INNER" || t.text == "LEFT")
}

func (p *parser) parseTableFactor() (TableRef, error) {
	t := p.peek()
	// Parenthesized subquery.
	if t.kind == tokSymbol && t.text == "(" {
		p.advance()
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		sq := &Subquery{Query: sub.(*Select)}
		sq.Alias = p.parseOptionalAlias()
		return sq, nil
	}
	// ITERATE is a table function when followed by an argument list and a
	// plain relation name otherwise (the step/stop subqueries reference the
	// working table as `iterate`).
	if t.kind == tokKeyword && t.text == "ITERATE" {
		p.advance()
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			return p.parseTableFuncArgs("iterate")
		}
		tn := &TableName{Name: "iterate"}
		tn.Alias = p.parseOptionalAlias()
		return tn, nil
	}
	// PAGE RANK spelled as two tokens (as in the paper's Listing 2).
	if t.kind == tokIdent && t.text == "page" && p.peek2().kind == tokIdent && p.peek2().text == "rank" {
		p.advance()
		p.advance()
		return p.parseTableFuncArgs("pagerank")
	}
	if t.kind == tokIdent {
		name := t.text
		if tableFuncNames[name] && p.peek2().kind == tokSymbol && p.peek2().text == "(" {
			p.advance()
			return p.parseTableFuncArgs(name)
		}
		p.advance()
		// Schema-qualified name (system.query_log): the dotted pair forms
		// one table name, resolved by the engine's catalog.
		if p.peek().kind == tokSymbol && p.peek().text == "." {
			p.advance()
			part, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			name = name + "." + part
		}
		tn := &TableName{Name: name}
		tn.Alias = p.parseOptionalAlias()
		return tn, nil
	}
	return nil, p.errorf("expected table reference, got %q", t.text)
}

// parseOptionalAlias consumes `[AS] ident` when present.
func (p *parser) parseOptionalAlias() string {
	if p.matchKeyword("AS") {
		if t := p.peek(); t.kind == tokIdent || t.kind == tokQuotedIdent {
			p.advance()
			return t.text
		}
		return ""
	}
	if t := p.peek(); t.kind == tokIdent || t.kind == tokQuotedIdent {
		p.advance()
		return t.text
	}
	return ""
}

// parseTableFuncArgs parses the parenthesized argument list of a table
// function. Each argument is a subquery, a lambda, or a scalar expression.
func (p *parser) parseTableFuncArgs(name string) (TableRef, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	tf := &TableFunc{Name: name}
	if p.matchSymbol(")") {
		tf.Alias = p.parseOptionalAlias()
		return tf, nil
	}
	for {
		arg, err := p.parseTableFuncArg()
		if err != nil {
			return nil, err
		}
		tf.Args = append(tf.Args, arg)
		if p.matchSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	tf.Alias = p.parseOptionalAlias()
	return tf, nil
}

func (p *parser) parseTableFuncArg() (TableFuncArg, error) {
	t := p.peek()
	// Lambda argument.
	if t.kind == tokLambda || (t.kind == tokKeyword && t.text == "LAMBDA") {
		l, err := p.parseLambda()
		if err != nil {
			return TableFuncArg{}, err
		}
		return TableFuncArg{Lambda: l}, nil
	}
	// Subquery argument: '(' SELECT|WITH.
	if t.kind == tokSymbol && t.text == "(" {
		if n := p.peek2(); n.kind == tokKeyword && (n.text == "SELECT" || n.text == "WITH") {
			p.advance()
			sub, err := p.parseSelect()
			if err != nil {
				return TableFuncArg{}, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return TableFuncArg{}, err
			}
			return TableFuncArg{Query: sub.(*Select)}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return TableFuncArg{}, err
	}
	return TableFuncArg{Scalar: e}, nil
}

// parseLambda parses `λ(a, b) expr` or `LAMBDA(a, b) expr`. A field of a
// parameter, a.x, parses as the column reference it becomes when the λ is
// bound to an operator's input.
func (p *parser) parseLambda() (*expr.Lambda, error) {
	p.advance() // λ or LAMBDA
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var params []string
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		params = append(params, name)
		if p.matchSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &expr.Lambda{Params: params, Body: body}, nil
}

// ---- expression parsing (precedence climbing) ----

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.matchKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &expr.BinOp{Op: expr.OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.matchKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &expr.BinOp{Op: expr.OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.matchKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.UnOp{Op: expr.OpNot, E: inner}, nil
	}
	return p.parseComparison()
}

var compareOps = map[string]expr.Op{
	"=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt,
	"<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parseComparison() (expr.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.matchKeyword("IS") {
		negate := p.matchKeyword("NOT")
		if !p.matchKeyword("NULL") {
			return nil, p.errorf("expected NULL after IS")
		}
		return &expr.IsNull{E: left, Negate: negate}, nil
	}
	// [NOT] BETWEEN a AND b
	notPrefix := false
	if t := p.peek(); t.kind == tokKeyword && t.text == "NOT" {
		if n := p.peek2(); n.kind == tokKeyword && (n.text == "BETWEEN" || n.text == "IN" || n.text == "LIKE") {
			p.advance()
			notPrefix = true
		}
	}
	if p.matchKeyword("LIKE") {
		t := p.peek()
		if t.kind != tokString {
			return nil, p.errorf("LIKE expects a string pattern literal, got %q", t.text)
		}
		p.advance()
		return &expr.Like{E: left, Pattern: t.text, Negate: notPrefix}, nil
	}
	if p.matchKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		e := expr.Expr(&expr.BinOp{Op: expr.OpAnd,
			L: &expr.BinOp{Op: expr.OpGe, L: left, R: lo},
			R: &expr.BinOp{Op: expr.OpLe, L: left, R: hi}})
		if notPrefix {
			e = &expr.UnOp{Op: expr.OpNot, E: e}
		}
		return e, nil
	}
	// [NOT] IN (list)
	if p.matchKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var disj expr.Expr
		for {
			item, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			eq := &expr.BinOp{Op: expr.OpEq, L: left, R: item}
			if disj == nil {
				disj = eq
			} else {
				disj = &expr.BinOp{Op: expr.OpOr, L: disj, R: eq}
			}
			if p.matchSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if notPrefix {
			disj = &expr.UnOp{Op: expr.OpNot, E: disj}
		}
		return disj, nil
	}
	if t := p.peek(); t.kind == tokSymbol {
		if op, ok := compareOps[t.text]; ok {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &expr.BinOp{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol {
			return left, nil
		}
		var op expr.Op
		switch t.text {
		case "+":
			op = expr.OpAdd
		case "-":
			op = expr.OpSub
		case "||":
			op = expr.OpConcat
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &expr.BinOp{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	left, err := p.parsePower()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol {
			return left, nil
		}
		var op expr.Op
		switch t.text {
		case "*":
			op = expr.OpMul
		case "/":
			op = expr.OpDiv
		case "%":
			op = expr.OpMod
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parsePower()
		if err != nil {
			return nil, err
		}
		left = &expr.BinOp{Op: op, L: left, R: right}
	}
}

// parsePower handles ^, which is right-associative and binds tighter than
// multiplication (as in the paper's Listing 3).
func (p *parser) parsePower() (expr.Expr, error) {
	base, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokSymbol && t.text == "^" {
		p.advance()
		exp, err := p.parsePower()
		if err != nil {
			return nil, err
		}
		return &expr.BinOp{Op: expr.OpPow, L: base, R: exp}, nil
	}
	return base, nil
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if t := p.peek(); t.kind == tokSymbol && t.text == "-" {
		p.advance()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative literals.
		if c, ok := inner.(*expr.Const); ok && c.Val.T.IsNumeric() && !c.Val.Null {
			v := c.Val
			if v.T == types.Int64 {
				return &expr.Const{Val: types.NewInt(-v.I)}, nil
			}
			return &expr.Const{Val: types.NewFloat(-v.F)}, nil
		}
		return &expr.UnOp{Op: expr.OpNeg, E: inner}, nil
	}
	if t := p.peek(); t.kind == tokSymbol && t.text == "+" {
		p.advance()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &expr.Const{Val: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			// Very large integer literal: fall back to float.
			f, ferr := strconv.ParseFloat(t.text, 64)
			if ferr != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &expr.Const{Val: types.NewFloat(f)}, nil
		}
		return &expr.Const{Val: types.NewInt(i)}, nil

	case tokString:
		p.advance()
		return &expr.Const{Val: types.NewString(t.text)}, nil

	case tokParam:
		p.advance()
		idx, err := strconv.Atoi(t.text)
		if err != nil || idx < 1 {
			return nil, p.errorf("bad parameter placeholder $%s", t.text)
		}
		return &expr.Param{Idx: idx}, nil

	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &expr.Const{Val: types.NewNull(types.Unknown)}, nil
		case "TRUE":
			p.advance()
			return &expr.Const{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &expr.Const{Val: types.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.text)

	case tokSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "*" {
			// Bare * only valid inside COUNT(*), handled in parseFuncCall.
			return nil, p.errorf("unexpected *")
		}
		return nil, p.errorf("unexpected %q in expression", t.text)

	case tokIdent, tokQuotedIdent:
		return p.parseIdentExpr()
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}

func (p *parser) parseIdentExpr() (expr.Expr, error) {
	name := p.advance().text
	// Function call.
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		return p.parseFuncCall(name)
	}
	// Qualified reference: table.column or lambdaParam.field.
	if p.peek().kind == tokSymbol && p.peek().text == "." {
		p.advance()
		field, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &expr.ColRef{Table: name, Name: field, Index: -1}, nil
	}
	return &expr.ColRef{Name: name, Index: -1}, nil
}

func (p *parser) parseFuncCall(name string) (expr.Expr, error) {
	p.advance() // (
	name = strings.ToLower(name)
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.advance()
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &expr.FuncCall{Name: name, Star: true}, nil
	}
	var args []expr.Expr
	if !(p.peek().kind == tokSymbol && p.peek().text == ")") {
		// DISTINCT inside aggregates is not supported; reject it clearly.
		if p.peek().kind == tokKeyword && p.peek().text == "DISTINCT" {
			return nil, p.errorf("DISTINCT aggregates are not supported")
		}
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.matchSymbol(",") {
				continue
			}
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &expr.FuncCall{Name: name, Args: args}, nil
}

func (p *parser) parseCase() (expr.Expr, error) {
	p.advance() // CASE
	c := &expr.Case{}
	// Simple CASE (CASE expr WHEN v THEN ...) is desugared to searched CASE.
	var operand expr.Expr
	if t := p.peek(); !(t.kind == tokKeyword && (t.text == "WHEN" || t.text == "END")) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		operand = e
	}
	for p.matchKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if operand != nil {
			cond = &expr.BinOp{Op: expr.OpEq, L: operand, R: cond}
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, expr.When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.matchKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseCast() (expr.Expr, error) {
	p.advance() // CAST
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	typeName, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	ct, err := types.ParseType(typeName)
	if err != nil {
		return nil, p.errorf("%v", err)
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &expr.Cast{E: e, To: ct}, nil
}
