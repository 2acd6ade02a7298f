package policydsl

import (
	"fmt"
	"strings"
)

// parser is a recursive-descent / precedence-climbing parser over the
// token stream.
type parser struct {
	toks []token
	i    int
}

// Parse turns DSL source into an AST unit.
func Parse(src string) (*Unit, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	unit := &Unit{}
	for !p.at(tokEOF, "") {
		switch {
		case p.at(tokKeyword, "map"):
			m, err := p.parseMapDecl()
			if err != nil {
				return nil, err
			}
			unit.Maps = append(unit.Maps, m)
		case p.at(tokKeyword, "policy"):
			pd, err := p.parsePolicyDecl()
			if err != nil {
				return nil, err
			}
			unit.Policies = append(unit.Policies, pd)
		default:
			t := p.peek()
			return nil, errf(t.line, t.col, "expected 'map' or 'policy', found %s", t)
		}
	}
	if len(unit.Policies) == 0 {
		return nil, errf(1, 1, "no policies declared")
	}
	return unit, nil
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) take() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.take()
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text, what string) (token, error) {
	if !p.at(kind, text) {
		t := p.peek()
		return t, errf(t.line, t.col, "expected %s, found %s", what, t)
	}
	return p.take(), nil
}

func (p *parser) expectPunct(text string) (token, error) {
	return p.expect(tokPunct, text, fmt.Sprintf("%q", text))
}

func (p *parser) expectIdent(what string) (token, error) {
	return p.expect(tokIdent, "", what)
}

// parseMapDecl: map name kind( k = v, ... ) ;
func (p *parser) parseMapDecl() (*MapDecl, error) {
	kw := p.take() // "map"
	name, err := p.expectIdent("map name")
	if err != nil {
		return nil, err
	}
	kind, err := p.expectIdent("map kind (array | hash | percpu_array)")
	if err != nil {
		return nil, err
	}
	// Names outlive the parse (a map and a program keep theirs) and a
	// token's text is a substring of the source: a copy lets it go.
	m := &MapDecl{pos: pos{kw.line, kw.col}, Name: strings.Clone(name.text), Kind: kind.text}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for !p.at(tokPunct, ")") {
		param, err := p.expectIdent("map parameter")
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct("="); err != nil {
			return nil, err
		}
		val, err := p.expect(tokInt, "", "integer value")
		if err != nil {
			return nil, err
		}
		switch param.text {
		case "key":
			m.Key = val.val
		case "value":
			m.Value = val.val
		case "entries":
			m.Entries = val.val
		case "cpus":
			m.CPUs = val.val
		case "grow":
			m.Grow = val.val
		default:
			return nil, errf(param.line, param.col, "unknown map parameter %q", param.text)
		}
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return m, nil
}

// parsePolicyDecl: policy kind name { stmts }
func (p *parser) parsePolicyDecl() (*PolicyDecl, error) {
	kw := p.take() // "policy"
	kind, err := p.expectIdent("hook kind (e.g. cmp_node)")
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent("policy name")
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &PolicyDecl{
		pos: pos{kw.line, kw.col}, HookKind: kind.text, Name: strings.Clone(name.text), Body: body,
	}, nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.at(tokPunct, "}") {
		if p.at(tokEOF, "") {
			t := p.peek()
			return nil, errf(t.line, t.col, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.take() // }
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch {
	case p.at(tokKeyword, "let"):
		p.take()
		name, err := p.expectIdent("variable name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct("="); err != nil {
			return nil, err
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &LetStmt{pos: pos{t.line, t.col}, Name: name.text, Init: init}, nil

	case p.at(tokKeyword, "return"):
		p.take()
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{pos: pos{t.line, t.col}, Value: v}, nil

	case p.at(tokKeyword, "if"):
		return p.parseIf()

	case p.at(tokKeyword, "for"):
		p.take()
		v, err := p.expectIdent("loop variable")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "in", "'in'"); err != nil {
			return nil, err
		}
		lo, err := p.expect(tokInt, "", "loop lower bound")
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(".."); err != nil {
			return nil, err
		}
		hi, err := p.expect(tokInt, "", "loop upper bound")
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ForStmt{pos: pos{t.line, t.col}, Var: v.text, Lo: lo.val, Hi: hi.val, Body: body}, nil

	case t.kind == tokIdent:
		// Lookahead: `x = e;`, `m[k] = e;`, `m[k] += e;`, or expr stmt.
		if p.toks[p.i+1].kind == tokPunct && p.toks[p.i+1].text == "=" {
			name := p.take()
			p.take() // =
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			return &AssignStmt{pos: pos{t.line, t.col}, Name: name.text, Value: v}, nil
		}
		if p.toks[p.i+1].kind == tokPunct && p.toks[p.i+1].text == "[" {
			// Could be a map write or a map read inside a larger
			// expression statement; parse key, then decide.
			save := p.i
			name := p.take()
			p.take() // [
			key, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			if p.at(tokPunct, "=") || p.at(tokPunct, "+=") {
				add := p.take().text == "+="
				v, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expectPunct(";"); err != nil {
					return nil, err
				}
				return &MapAssignStmt{
					pos: pos{t.line, t.col}, Map: name.text, Key: key, Value: v, Add: add,
				}, nil
			}
			p.i = save // plain expression statement; reparse
		}
		fallthrough

	default:
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{pos: pos{t.line, t.col}, X: x}, nil
	}
}

func (p *parser) parseIf() (Stmt, error) {
	t := p.take() // "if"
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node := &IfStmt{pos: pos{t.line, t.col}, Cond: cond, Then: then}
	if p.accept(tokKeyword, "else") {
		if p.at(tokKeyword, "if") {
			elif, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			node.Else = []Stmt{elif}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			node.Else = els
		}
	}
	return node, nil
}

// Operator precedence (C-like), lowest first. Ternary handled above
// binary parsing.
var precedence = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) parseExpr() (Expr, error) {
	e, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if p.at(tokPunct, "?") {
		q := p.take()
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		b, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Cond{pos: pos{q.line, q.col}, C: e, A: a, B: b}, nil
	}
	return e, nil
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokPunct {
			return left, nil
		}
		prec, ok := precedence[t.text]
		if !ok || prec < minPrec {
			return left, nil
		}
		op := p.take()
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &Binary{pos: pos{op.line, op.col}, Op: op.text, L: left, R: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.kind == tokPunct && (t.text == "-" || t.text == "!" || t.text == "~") {
		op := p.take()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{pos: pos{op.line, op.col}, Op: op.text, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokInt:
		p.take()
		return &IntLit{pos: pos{t.line, t.col}, Val: t.val}, nil

	case p.at(tokKeyword, "ctx"):
		p.take()
		if _, err := p.expectPunct("."); err != nil {
			return nil, err
		}
		f, err := p.expectIdent("context field")
		if err != nil {
			return nil, err
		}
		return &CtxField{pos: pos{t.line, t.col}, Field: f.text}, nil

	case t.kind == tokIdent:
		name := p.take()
		switch {
		case p.accept(tokPunct, "("):
			var args []Expr
			for !p.at(tokPunct, ")") {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(tokPunct, ",") {
					break
				}
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &Call{pos: pos{name.line, name.col}, Func: name.text, Args: args}, nil
		case p.accept(tokPunct, "["):
			key, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			return &MapIndex{pos: pos{name.line, name.col}, Map: name.text, Key: key}, nil
		default:
			return &VarRef{pos: pos{name.line, name.col}, Name: name.text}, nil
		}

	case p.accept(tokPunct, "("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, errf(t.line, t.col, "expected expression, found %s", t)
}
