package sqldb

import (
	"strconv"
	"strings"

	"repro/internal/variant"
)

type sqlParser struct {
	toks []sqlToken
	pos  int
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.atSymbol(";") {
		p.next()
	}
	if t := p.cur(); t.kind != tEOF {
		return nil, parseErr(t.pos, "unexpected trailing input %s", t)
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	stmts, _, err := parseScriptWithText(src)
	return stmts, err
}

// parseScriptWithText parses a script and also returns each statement's
// source text (sliced between token positions), which the executor logs to
// the write-ahead log.
func parseScriptWithText(src string) ([]Statement, []string, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, nil, err
	}
	p := &sqlParser{toks: toks}
	var stmts []Statement
	var texts []string
	for p.cur().kind != tEOF {
		if p.atSymbol(";") {
			p.next()
			continue
		}
		start := p.cur().pos
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, nil, err
		}
		stmts = append(stmts, stmt)
		texts = append(texts, strings.TrimSpace(src[start:p.cur().pos]))
		if !p.atSymbol(";") && p.cur().kind != tEOF {
			t := p.cur()
			return nil, nil, parseErr(t.pos, "expected ';' between statements, found %s", t)
		}
	}
	return stmts, texts, nil
}

func (p *sqlParser) cur() sqlToken { return p.toks[p.pos] }

func (p *sqlParser) next() sqlToken {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *sqlParser) atSymbol(s string) bool {
	t := p.cur()
	return t.kind == tSymbol && t.text == s
}

func (p *sqlParser) atKeyword(k string) bool {
	t := p.cur()
	return t.kind == tKeyword && t.text == k
}

func (p *sqlParser) acceptKeyword(k string) bool {
	if p.atKeyword(k) {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) expectSymbol(s string) error {
	if !p.atSymbol(s) {
		t := p.cur()
		return parseErr(t.pos, "expected %q, found %s", s, t)
	}
	p.next()
	return nil
}

func (p *sqlParser) expectKeyword(k string) error {
	if !p.atKeyword(k) {
		t := p.cur()
		return parseErr(t.pos, "expected %s, found %s", strings.ToUpper(k), t)
	}
	p.next()
	return nil
}

// ident accepts a plain or quoted identifier.
func (p *sqlParser) ident() (string, error) {
	t := p.cur()
	if t.kind == tIdent || t.kind == tQuoted {
		p.next()
		return t.text, nil
	}
	return "", parseErr(t.pos, "expected identifier, found %s", t)
}

func (p *sqlParser) parseStatement() (Statement, error) {
	t := p.cur()
	// ABORT is PostgreSQL's spelling of ROLLBACK; it is not reserved, so it
	// stays an identifier everywhere else.
	if t.kind == tIdent && t.text == "abort" {
		p.next()
		p.acceptTxnNoiseWord()
		return &RollbackStmt{}, nil
	}
	if t.kind != tKeyword {
		return nil, parseErr(t.pos, "expected statement keyword, found %s", t)
	}
	switch t.text {
	case "select":
		return p.parseSelect()
	case "create":
		if n := p.toks[p.pos+1]; n.kind == tKeyword && n.text == "index" {
			return p.parseCreateIndex()
		}
		return p.parseCreateTable()
	case "drop":
		if n := p.toks[p.pos+1]; n.kind == tKeyword && n.text == "index" {
			return p.parseDropIndex()
		}
		return p.parseDropTable()
	case "insert":
		return p.parseInsert()
	case "update":
		return p.parseUpdate()
	case "delete":
		return p.parseDelete()
	case "explain":
		return p.parseExplain()
	case "analyze":
		p.next()
		s := &AnalyzeStmt{}
		if t := p.cur(); t.kind == tIdent || t.kind == tQuoted {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			s.Table = name
		}
		return s, nil
	case "begin":
		p.next()
		p.acceptTxnNoiseWord()
		return &BeginStmt{}, nil
	case "commit", "end": // END is PostgreSQL's spelling of COMMIT
		p.next()
		p.acceptTxnNoiseWord()
		return &CommitStmt{}, nil
	case "rollback":
		p.next()
		p.acceptTxnNoiseWord()
		return &RollbackStmt{}, nil
	default:
		return nil, parseErr(t.pos, "unsupported statement %s", t)
	}
}

// parseExplain parses EXPLAIN <stmt>. The target must be a plannable
// statement: SELECT or DML. EXPLAIN EXPLAIN and transaction control are
// rejected.
func (p *sqlParser) parseExplain() (Statement, error) {
	if err := p.expectKeyword("explain"); err != nil {
		return nil, err
	}
	t := p.cur()
	target, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	switch target.(type) {
	case *SelectStmt, *InsertStmt, *UpdateStmt, *DeleteStmt:
		return &ExplainStmt{Target: target}, nil
	default:
		return nil, parseErr(t.pos, "EXPLAIN supports SELECT, INSERT, UPDATE, and DELETE")
	}
}

// acceptTxnNoiseWord skips the optional WORK / TRANSACTION after
// BEGIN/COMMIT/ROLLBACK (they lex as plain identifiers).
func (p *sqlParser) acceptTxnNoiseWord() {
	if t := p.cur(); t.kind == tIdent && (t.text == "work" || t.text == "transaction") {
		p.next()
	}
}

// --- SELECT ---

func (p *sqlParser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	if p.acceptKeyword("distinct") {
		s.Distinct = true
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if p.atSymbol(",") {
			p.next()
			continue
		}
		break
	}
	if p.acceptKeyword("from") {
		from, err := p.parseFromList()
		if err != nil {
			return nil, err
		}
		s.From = from
	}
	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.atKeyword("group") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if p.atSymbol(",") {
				p.next()
				continue
			}
			break
		}
	}
	if p.acceptKeyword("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.atKeyword("order") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("desc") {
				item.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			s.OrderBy = append(s.OrderBy, item)
			if p.atSymbol(",") {
				p.next()
				continue
			}
			break
		}
	}
	if p.acceptKeyword("limit") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Limit = e
	}
	if p.acceptKeyword("offset") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Offset = e
	}
	return s, nil
}

func (p *sqlParser) parseSelectItem() (SelectItem, error) {
	if p.atSymbol("*") {
		p.next()
		return SelectItem{Star: true}, nil
	}
	// t.* wildcard: ident '.' '*'
	if t := p.cur(); (t.kind == tIdent || t.kind == tQuoted) &&
		p.toks[p.pos+1].kind == tSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tSymbol && p.toks[p.pos+2].text == "*" {
		p.next()
		p.next()
		p.next()
		return SelectItem{Star: true, Table: t.text}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("as") {
		alias, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.cur(); t.kind == tIdent || t.kind == tQuoted {
		// Bare alias.
		p.next()
		item.Alias = t.text
	}
	return item, nil
}

func (p *sqlParser) parseFromList() ([]FromItem, error) {
	var items []FromItem
	first, err := p.parseFromItem(false)
	if err != nil {
		return nil, err
	}
	items = append(items, first)
	for {
		switch {
		case p.atSymbol(","):
			p.next()
			it, err := p.parseFromItem(false)
			if err != nil {
				return nil, err
			}
			it.Join = JoinCross
			items = append(items, it)
		case p.atKeyword("cross"):
			p.next()
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			it, err := p.parseFromItem(false)
			if err != nil {
				return nil, err
			}
			it.Join = JoinCross
			items = append(items, it)
		case p.atKeyword("join"), p.atKeyword("inner"):
			if p.atKeyword("inner") {
				p.next()
			}
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			it, err := p.parseFromItem(false)
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("on"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			it.Join = JoinInner
			it.On = on
			items = append(items, it)
		case p.atKeyword("left"):
			p.next()
			p.acceptKeyword("outer")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			it, err := p.parseFromItem(false)
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("on"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			it.Join = JoinLeft
			it.On = on
			items = append(items, it)
		default:
			return items, nil
		}
	}
}

func (p *sqlParser) parseFromItem(afterLateral bool) (FromItem, error) {
	var item FromItem
	if p.acceptKeyword("lateral") {
		if afterLateral {
			return FromItem{}, parseErr(p.cur().pos, "duplicate LATERAL")
		}
		inner, err := p.parseFromItem(true)
		if err != nil {
			return FromItem{}, err
		}
		inner.Lateral = true
		return inner, nil
	}
	switch t := p.cur(); {
	case t.kind == tSymbol && t.text == "(":
		p.next()
		sub, err := p.parseSelect()
		if err != nil {
			return FromItem{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return FromItem{}, err
		}
		item.Sub = sub
	case t.kind == tIdent || t.kind == tQuoted:
		name := t.text
		p.next()
		if p.atSymbol("(") {
			// Set-returning function call.
			p.next()
			var args []Expr
			if !p.atSymbol(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return FromItem{}, err
					}
					args = append(args, a)
					if p.atSymbol(",") {
						p.next()
						continue
					}
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return FromItem{}, err
			}
			item.Func = &FuncExpr{Name: name, Args: args}
		} else {
			item.Table = name
		}
	default:
		return FromItem{}, parseErr(t.pos, "expected table, function, or subquery in FROM, found %s", t)
	}

	// Alias: [AS] name [(colalias, ...)]
	hasAlias := false
	if p.acceptKeyword("as") {
		hasAlias = true
	} else if t := p.cur(); t.kind == tIdent || t.kind == tQuoted {
		hasAlias = true
	}
	if hasAlias {
		alias, err := p.ident()
		if err != nil {
			return FromItem{}, err
		}
		item.Alias = alias
		if p.atSymbol("(") {
			p.next()
			for {
				col, err := p.ident()
				if err != nil {
					return FromItem{}, err
				}
				item.ColAliases = append(item.ColAliases, col)
				if p.atSymbol(",") {
					p.next()
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return FromItem{}, err
			}
		}
	}
	if item.Sub != nil && item.Alias == "" {
		return FromItem{}, parseErr(p.cur().pos, "subquery in FROM must have an alias")
	}
	return item, nil
}

// --- DDL / DML ---

// normalizeType maps SQL type spellings to the engine's canonical names.
func normalizeType(pos int, name string, p *sqlParser) (string, error) {
	switch name {
	case "int", "integer", "bigint", "smallint", "serial":
		return "integer", nil
	case "float", "real", "numeric", "decimal", "float8", "float4":
		return "float", nil
	case "double": // double precision
		if t := p.cur(); t.kind == tIdent && t.text == "precision" {
			p.next()
		}
		return "float", nil
	case "text", "varchar", "char", "character", "string":
		// Optional (n) length, ignored.
		if p.atSymbol("(") {
			p.next()
			if t := p.cur(); t.kind == tNumber {
				p.next()
			}
			if err := p.expectSymbol(")"); err != nil {
				return "", err
			}
		}
		return "text", nil
	case "bool", "boolean":
		return "boolean", nil
	case "timestamp", "timestamptz", "datetime", "date":
		return "timestamp", nil
	case "variant":
		return "variant", nil
	default:
		return "", parseErr(pos, "unsupported type %q", name)
	}
}

func (p *sqlParser) parseCreateTable() (*CreateTableStmt, error) {
	if err := p.expectKeyword("create"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("table"); err != nil {
		return nil, err
	}
	s := &CreateTableStmt{}
	if p.atKeyword("if") {
		p.next()
		if err := p.expectKeyword("not"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("exists"); err != nil {
			return nil, err
		}
		s.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Name = name
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		colName, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.cur()
		typeName, err := p.ident()
		if err != nil {
			return nil, err
		}
		normalized, err := normalizeType(t.pos, typeName, p)
		if err != nil {
			return nil, err
		}
		s.Columns = append(s.Columns, ColumnDef{Name: colName, Type: normalized})
		if p.atSymbol(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *sqlParser) parseCreateIndex() (*CreateIndexStmt, error) {
	if err := p.expectKeyword("create"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("index"); err != nil {
		return nil, err
	}
	s := &CreateIndexStmt{Using: IndexOrdered}
	if p.atKeyword("if") {
		p.next()
		if err := p.expectKeyword("not"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("exists"); err != nil {
			return nil, err
		}
		s.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Name = name
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Table = table
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Column = col
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("using") {
		t := p.cur()
		method, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch strings.ToLower(method) {
		case IndexHash:
			s.Using = IndexHash
		case IndexOrdered:
			s.Using = IndexOrdered
		default:
			return nil, parseErr(t.pos, "unsupported index access method %q (want hash or btree)", method)
		}
	}
	return s, nil
}

func (p *sqlParser) parseDropIndex() (*DropIndexStmt, error) {
	if err := p.expectKeyword("drop"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("index"); err != nil {
		return nil, err
	}
	s := &DropIndexStmt{}
	if p.atKeyword("if") {
		p.next()
		if err := p.expectKeyword("exists"); err != nil {
			return nil, err
		}
		s.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Name = name
	return s, nil
}

func (p *sqlParser) parseDropTable() (*DropTableStmt, error) {
	if err := p.expectKeyword("drop"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("table"); err != nil {
		return nil, err
	}
	s := &DropTableStmt{}
	if p.atKeyword("if") {
		p.next()
		if err := p.expectKeyword("exists"); err != nil {
			return nil, err
		}
		s.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Name = name
	return s, nil
}

func (p *sqlParser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &InsertStmt{Table: name}
	if p.atSymbol("(") {
		p.next()
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, col)
			if p.atSymbol(",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.atKeyword("values"):
		p.next()
		for {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.atSymbol(",") {
					p.next()
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			s.Rows = append(s.Rows, row)
			if p.atSymbol(",") {
				p.next()
				continue
			}
			break
		}
	case p.atKeyword("select"):
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		s.Query = q
	default:
		t := p.cur()
		return nil, parseErr(t.pos, "expected VALUES or SELECT, found %s", t)
	}
	return s, nil
}

func (p *sqlParser) parseUpdate() (*UpdateStmt, error) {
	if err := p.expectKeyword("update"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	s := &UpdateStmt{Table: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Set = append(s.Set, SetClause{Column: col, Value: e})
		if p.atSymbol(",") {
			p.next()
			continue
		}
		break
	}
	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	return s, nil
}

func (p *sqlParser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeyword("delete"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &DeleteStmt{Table: name}
	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	return s, nil
}

// --- Expressions (precedence climbing) ---
//
//	expr      := orExpr
//	orExpr    := andExpr (OR andExpr)*
//	andExpr   := notExpr (AND notExpr)*
//	notExpr   := NOT notExpr | predicate
//	predicate := concat [comparison | IN | IS NULL | LIKE | BETWEEN]
//	concat    := addsub ('||' addsub)*
//	addsub    := muldiv (('+'|'-') muldiv)*
//	muldiv    := unary (('*'|'/'|'%') unary)*
//	unary     := '-' unary | postfix
//	postfix   := primary ('::' type)*
//	primary   := literal | param | func | columnref | '(' expr ')' | CASE | CAST

func (p *sqlParser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *sqlParser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("or") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "or", L: left, R: right}
	}
	return left, nil
}

func (p *sqlParser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("and") {
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "and", L: left, R: right}
	}
	return left, nil
}

func (p *sqlParser) parseNot() (Expr, error) {
	if p.acceptKeyword("not") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "not", X: x}, nil
	}
	return p.parsePredicate()
}

func (p *sqlParser) parsePredicate() (Expr, error) {
	left, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	// Optional NOT before IN/LIKE/BETWEEN.
	negated := false
	if p.atKeyword("not") {
		// Lookahead: NOT must precede IN/LIKE/BETWEEN here.
		save := p.pos
		p.next()
		if p.atKeyword("in") || p.atKeyword("like") || p.atKeyword("between") {
			negated = true
		} else {
			p.pos = save
			return left, nil
		}
	}
	switch {
	case p.atSymbol("=") || p.atSymbol("<>") || p.atSymbol("!=") ||
		p.atSymbol("<") || p.atSymbol("<=") || p.atSymbol(">") || p.atSymbol(">="):
		op := p.next().text
		if op == "!=" {
			op = "<>"
		}
		right, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, L: left, R: right}, nil
	case p.atKeyword("in"):
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.atSymbol(",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{X: left, List: list, Not: negated}, nil
	case p.atKeyword("like"):
		p.next()
		pattern, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{X: left, Pattern: pattern, Not: negated}, nil
	case p.atKeyword("between"):
		p.next()
		lo, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: left, Lo: lo, Hi: hi, Not: negated}, nil
	case p.atKeyword("is"):
		p.next()
		not := p.acceptKeyword("not")
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: left, Not: not}, nil
	}
	return left, nil
}

func (p *sqlParser) parseConcat() (Expr, error) {
	left, err := p.parseAddSub()
	if err != nil {
		return nil, err
	}
	for p.atSymbol("||") {
		p.next()
		right, err := p.parseAddSub()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "||", L: left, R: right}
	}
	return left, nil
}

func (p *sqlParser) parseAddSub() (Expr, error) {
	left, err := p.parseMulDiv()
	if err != nil {
		return nil, err
	}
	for p.atSymbol("+") || p.atSymbol("-") {
		op := p.next().text
		right, err := p.parseMulDiv()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *sqlParser) parseMulDiv() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atSymbol("*") || p.atSymbol("/") || p.atSymbol("%") {
		op := p.next().text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *sqlParser) parseUnary() (Expr, error) {
	if p.atSymbol("-") {
		p.next()
		// -9223372036854775808 (MinInt64) only exists as a negated literal:
		// the positive digits overflow int64 on their own, so fold the sign
		// into the literal here. In-range negative literals keep the
		// UnaryExpr shape (constant folding elsewhere relies on it, and the
		// EXPLAIN goldens print it).
		if t := p.cur(); t.kind == tNumber && !strings.ContainsAny(t.text, ".eE") {
			if _, err := strconv.ParseInt(t.text, 10, 64); err != nil {
				if i, err := strconv.ParseInt("-"+t.text, 10, 64); err == nil {
					p.next()
					return &Literal{Value: variant.NewInt(i)}, nil
				}
			}
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	if p.atSymbol("+") {
		p.next()
		return p.parseUnary()
	}
	return p.parsePostfix()
}

func (p *sqlParser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.atSymbol("::") {
		p.next()
		t := p.cur()
		typeName, err := p.ident()
		if err != nil {
			return nil, err
		}
		normalized, err := normalizeType(t.pos, typeName, p)
		if err != nil {
			return nil, err
		}
		e = &CastExpr{X: e, Type: normalized}
	}
	return e, nil
}

func (p *sqlParser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, parseErr(t.pos, "invalid number %q", t.text)
			}
			return &Literal{Value: variant.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, parseErr(t.pos, "invalid integer %q", t.text)
		}
		return &Literal{Value: variant.NewInt(i)}, nil

	case t.kind == tString:
		p.next()
		return &Literal{Value: variant.NewText(t.text)}, nil

	case t.kind == tParam:
		p.next()
		idx, err := strconv.Atoi(t.text)
		if err != nil || idx < 1 {
			return nil, parseErr(t.pos, "invalid parameter $%s", t.text)
		}
		return &Param{Index: idx}, nil

	case t.kind == tKeyword && t.text == "null":
		p.next()
		return &Literal{Value: variant.NewNull()}, nil
	case t.kind == tKeyword && t.text == "true":
		p.next()
		return &Literal{Value: variant.NewBool(true)}, nil
	case t.kind == tKeyword && t.text == "false":
		p.next()
		return &Literal{Value: variant.NewBool(false)}, nil

	case t.kind == tKeyword && t.text == "case":
		return p.parseCase()

	case t.kind == tKeyword && t.text == "cast":
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("as"); err != nil {
			return nil, err
		}
		tt := p.cur()
		typeName, err := p.ident()
		if err != nil {
			return nil, err
		}
		normalized, err := normalizeType(tt.pos, typeName, p)
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CastExpr{X: x, Type: normalized}, nil

	case t.kind == tIdent || t.kind == tQuoted:
		name := t.text
		p.next()
		if p.atSymbol("(") {
			p.next()
			fe := &FuncExpr{Name: name}
			if p.atSymbol("*") {
				p.next()
				fe.Star = true
			} else if !p.atSymbol(")") {
				if p.acceptKeyword("distinct") {
					fe.Distinct = true
				}
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fe.Args = append(fe.Args, a)
					if p.atSymbol(",") {
						p.next()
						continue
					}
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			// OVER is contextual (it lexes as a plain identifier): only a
			// following "(" makes it a window clause rather than an alias.
			if p.cur().kind == tIdent && p.cur().text == "over" &&
				p.toks[p.pos+1].kind == tSymbol && p.toks[p.pos+1].text == "(" {
				p.next()
				over, err := p.parseWindowSpec()
				if err != nil {
					return nil, err
				}
				fe.Over = over
			}
			return fe, nil
		}
		if p.atSymbol(".") {
			p.next()
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil

	case t.kind == tSymbol && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil

	default:
		return nil, parseErr(t.pos, "expected expression, found %s", t)
	}
}

// acceptIdentWord consumes the current token when it is the given contextual
// word — an identifier that acts as a keyword only inside a window spec
// (partition, rows, unbounded, preceding, following, current, row).
func (p *sqlParser) acceptIdentWord(w string) bool {
	if t := p.cur(); t.kind == tIdent && t.text == w {
		p.next()
		return true
	}
	return false
}

// parseWindowSpec parses the parenthesised body of an OVER clause:
//
//	( [PARTITION BY exprs] [ORDER BY items] [ROWS frame] )
func (p *sqlParser) parseWindowSpec() (*WindowSpec, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	ws := &WindowSpec{}
	if p.acceptIdentWord("partition") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ws.PartitionBy = append(ws.PartitionBy, e)
			if p.atSymbol(",") {
				p.next()
				continue
			}
			break
		}
	}
	if p.atKeyword("order") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("desc") {
				item.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			ws.OrderBy = append(ws.OrderBy, item)
			if p.atSymbol(",") {
				p.next()
				continue
			}
			break
		}
	}
	if p.acceptIdentWord("rows") {
		f := &WindowFrame{}
		if p.atKeyword("between") {
			p.next()
			start, err := p.parseFrameBound()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("and"); err != nil {
				return nil, err
			}
			end, err := p.parseFrameBound()
			if err != nil {
				return nil, err
			}
			f.Start, f.End = start, end
		} else {
			start, err := p.parseFrameBound()
			if err != nil {
				return nil, err
			}
			f.Start = start
			f.End = FrameBound{Kind: frameCurrentRow}
		}
		if f.Start.Kind > f.End.Kind {
			return nil, parseErr(p.cur().pos, "window frame start cannot follow its end")
		}
		ws.Frame = f
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return ws, nil
}

// parseFrameBound parses one endpoint of a ROWS frame.
func (p *sqlParser) parseFrameBound() (FrameBound, error) {
	t := p.cur()
	switch {
	case p.acceptIdentWord("unbounded"):
		if p.acceptIdentWord("preceding") {
			return FrameBound{Kind: frameUnboundedPreceding}, nil
		}
		if p.acceptIdentWord("following") {
			return FrameBound{Kind: frameUnboundedFollowing}, nil
		}
		return FrameBound{}, parseErr(p.cur().pos, "expected PRECEDING or FOLLOWING after UNBOUNDED")
	case p.acceptIdentWord("current"):
		if !p.acceptIdentWord("row") {
			return FrameBound{}, parseErr(p.cur().pos, "expected ROW after CURRENT")
		}
		return FrameBound{Kind: frameCurrentRow}, nil
	case t.kind == tNumber:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return FrameBound{}, parseErr(t.pos, "invalid frame offset %q", t.text)
		}
		p.next()
		if p.acceptIdentWord("preceding") {
			return FrameBound{Kind: frameOffsetPreceding, Offset: n}, nil
		}
		if p.acceptIdentWord("following") {
			return FrameBound{Kind: frameOffsetFollowing, Offset: n}, nil
		}
		return FrameBound{}, parseErr(p.cur().pos, "expected PRECEDING or FOLLOWING after frame offset")
	}
	return FrameBound{}, parseErr(t.pos, "expected window frame bound")
}

func (p *sqlParser) parseCase() (Expr, error) {
	if err := p.expectKeyword("case"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	if !p.atKeyword("when") {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = operand
	}
	for p.acceptKeyword("when") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("then"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{When: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, parseErr(p.cur().pos, "CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	return ce, nil
}
