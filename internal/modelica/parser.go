package modelica

import (
	"fmt"
	"math"
	"strconv"
)

// parser is a recursive-descent parser over a pre-lexed token stream.
type parser struct {
	toks []token
	pos  int
	// depth counts the parseUnary frames on the stack; every way an
	// expression nests passes through one.
	depth int
}

// maxExprDepth bounds expression nesting (parentheses, call arguments, sign
// and exponent chains), so hostile source fails with an error instead of
// exhausting the goroutine stack.
const maxExprDepth = 500

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) peek() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) expectSymbol(sym string) error {
	t := p.cur()
	if t.kind != tokSymbol || t.text != sym {
		return errAt(t.line, t.col, "expected %q, found %s", sym, t)
	}
	p.advance()
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.cur()
	if t.kind != tokKeyword || t.text != kw {
		return errAt(t.line, t.col, "expected %q, found %s", kw, t)
	}
	p.advance()
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", errAt(t.line, t.col, "expected identifier, found %s", t)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) atSymbol(sym string) bool {
	t := p.cur()
	return t.kind == tokSymbol && t.text == sym
}

func (p *parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokKeyword && t.text == kw
}

// ParseModel parses a complete model declaration:
//
//	model Name
//	  <component clauses>
//	equation
//	  <equations>
//	end Name;
func ParseModel(src string) (*RawModel, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	m, err := p.parseModel()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, errAt(t.line, t.col, "unexpected trailing input %s", t)
	}
	return m, nil
}

func (p *parser) parseModel() (*RawModel, error) {
	if err := p.expectKeyword("model"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m := &RawModel{Name: name}
	// Optional model description string.
	if p.cur().kind == tokString {
		p.advance()
	}

	// Component clauses until the equation section (or directly "end").
	for !p.atKeyword("equation") && !p.atKeyword("end") {
		comps, err := p.parseComponentClause()
		if err != nil {
			return nil, err
		}
		m.Components = append(m.Components, comps...)
	}

	if p.atKeyword("equation") {
		p.advance()
		for !p.atKeyword("end") {
			eq, err := p.parseEquation()
			if err != nil {
				return nil, err
			}
			m.Equations = append(m.Equations, eq)
		}
	}

	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	endName, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if endName != name {
		t := p.cur()
		return nil, errAt(t.line, t.col, "end %s does not match model %s", endName, name)
	}
	if err := p.expectSymbol(";"); err != nil {
		return nil, err
	}
	return m, nil
}

// parseComponentClause parses e.g.
//
//	parameter Real A = 1 "thermal";
//	input Real u(start=0, min=0, max=1);
//	Real x(start=20);
//	output Real y, z;
func (p *parser) parseComponentClause() ([]Component, error) {
	t := p.cur()
	causality := CausalityLocal
	switch {
	case p.atKeyword("parameter"), p.atKeyword("constant"):
		causality = CausalityParameter
		p.advance()
	case p.atKeyword("input"):
		causality = CausalityInput
		p.advance()
	case p.atKeyword("output"):
		causality = CausalityOutput
		p.advance()
	}
	// Type name: Real (Integer/Boolean accepted and treated as Real-valued).
	tt := p.cur()
	if tt.kind != tokKeyword || (tt.text != "Real" && tt.text != "Integer" && tt.text != "Boolean") {
		return nil, errAt(t.line, t.col, "expected type name (Real), found %s", tt)
	}
	p.advance()

	var comps []Component
	for {
		c, err := p.parseDeclaration(causality)
		if err != nil {
			return nil, err
		}
		comps = append(comps, c)
		if p.atSymbol(",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSymbol(";"); err != nil {
		return nil, err
	}
	return comps, nil
}

func (p *parser) parseDeclaration(causality Causality) (Component, error) {
	name, err := p.expectIdent()
	if err != nil {
		return Component{}, err
	}
	c := Component{
		Causality: causality,
		Name:      name,
		Start:     math.NaN(),
		Min:       math.NaN(),
		Max:       math.NaN(),
	}
	// Attribute modifiers: (start=..., min=..., max=...). Standard Modelica
	// places these before the declaration binding; the paper's snippets also
	// write them after (= value (min=..., max=...)), so parseAttrs is invoked
	// from both positions.
	if err := p.parseAttrs(&c); err != nil {
		return Component{}, err
	}
	// Declaration equation: = constant expression (binding value).
	if p.atSymbol("=") {
		p.advance()
		expr, err := p.parseExpr()
		if err != nil {
			return Component{}, err
		}
		val, err := evalConstant(expr)
		if err != nil {
			t := p.cur()
			return Component{}, errAt(t.line, t.col, "declaration value for %s must be constant: %v", name, err)
		}
		c.Start = val
		c.HasStart = true
		if err := p.parseAttrs(&c); err != nil {
			return Component{}, err
		}
	}
	// Optional description string.
	if p.cur().kind == tokString {
		c.Description = p.cur().text
		p.advance()
	}
	return c, nil
}

// parseAttrs parses an optional parenthesised attribute list into c.
func (p *parser) parseAttrs(c *Component) error {
	if p.atSymbol("(") {
		p.advance()
		for {
			attr, err := p.expectIdent()
			if err != nil {
				return err
			}
			if err := p.expectSymbol("="); err != nil {
				return err
			}
			expr, err := p.parseExpr()
			if err != nil {
				return err
			}
			val, err := evalConstant(expr)
			if err != nil {
				t := p.cur()
				return errAt(t.line, t.col, "attribute %s must be a constant expression: %v", attr, err)
			}
			switch attr {
			case "start":
				c.Start = val
				c.HasStart = true
			case "min":
				c.Min = val
			case "max":
				c.Max = val
			case "fixed", "nominal", "unit", "displayUnit":
				// accepted, ignored
			default:
				t := p.cur()
				return errAt(t.line, t.col, "unsupported attribute %q", attr)
			}
			if p.atSymbol(",") {
				p.advance()
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseEquation() (Equation, error) {
	lhs, err := p.parseExpr()
	if err != nil {
		return Equation{}, err
	}
	if err := p.expectSymbol("="); err != nil {
		return Equation{}, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return Equation{}, err
	}
	if err := p.expectSymbol(";"); err != nil {
		return Equation{}, err
	}
	return Equation{LHS: lhs, RHS: rhs}, nil
}

// ParseExpression parses a standalone expression (used to deserialize FMU
// payload equations).
func ParseExpression(src string) (Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, errAt(t.line, t.col, "unexpected trailing input %s", t)
	}
	return e, nil
}

// Expression grammar (precedence climbing):
//
//	expr    := rel
//	rel     := addsub (('<'|'>'|'<='|'>='|'=='|'<>') addsub)?
//	addsub  := muldiv (('+'|'-') muldiv)*
//	muldiv  := unary  (('*'|'/') unary)*
//	unary   := ('-'|'+') unary | power
//	power   := primary ('^' unary)?          // right associative
//	primary := NUMBER | IDENT ('(' args ')')? | '(' expr ')'
func (p *parser) parseExpr() (Expr, error) { return p.parseRel() }

func (p *parser) parseRel() (Expr, error) {
	left, err := p.parseAddSub()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind == tokSymbol {
		switch t.text {
		case "<", ">", "<=", ">=", "==", "<>":
			p.advance()
			right, err := p.parseAddSub()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: t.text, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAddSub() (Expr, error) {
	left, err := p.parseMulDiv()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.advance()
		right, err := p.parseMulDiv()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: t.text, L: left, R: right}
	}
}

func (p *parser) parseMulDiv() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokSymbol || (t.text != "*" && t.text != "/") {
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: t.text, L: left, R: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	if p.depth++; p.depth > maxExprDepth {
		return nil, errAt(t.line, t.col, "expression nested deeper than %d levels", maxExprDepth)
	}
	defer func() { p.depth-- }()
	if t.kind == tokSymbol && (t.text == "-" || t.text == "+") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.text, X: x}, nil
	}
	return p.parsePower()
}

func (p *parser) parsePower() (Expr, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.atSymbol("^") {
		p.advance()
		exp, err := p.parseUnary() // right associative, allows -x in exponent
		if err != nil {
			return nil, err
		}
		return &Binary{Op: "^", L: base, R: exp}, nil
	}
	return base, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errAt(t.line, t.col, "invalid number %q", t.text)
		}
		return &Number{Value: v}, nil

	case t.kind == tokIdent:
		p.advance()
		if p.atSymbol("(") {
			p.advance()
			var args []Expr
			if !p.atSymbol(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.atSymbol(",") {
						p.advance()
						continue
					}
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &Call{Fn: t.text, Args: args}, nil
		}
		return &Ident{Name: t.text}, nil

	case t.kind == tokSymbol && t.text == "(":
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil

	default:
		return nil, errAt(t.line, t.col, "expected expression, found %s", t)
	}
}

// mustParseExpression panics on error; used in fixtures and internal tables.
func mustParseExpression(src string) Expr {
	e, err := ParseExpression(src)
	if err != nil {
		panic(fmt.Sprintf("mustParseExpression(%q): %v", src, err))
	}
	return e
}
