package xpath

import (
	"fmt"
	"strconv"
)

// Parse parses an XPath expression (the unordered XPath 1.0 fragment) into
// an AST. The common case for IrisNet queries is an absolute Path.
func Parse(src string) (Expr, error) { return parse(src, nil) }

// parse parses src, making the literals at the given id slots slot literals.
func parse(src string, slots []slotSpan) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src, slots: slots}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokEOF {
		return nil, fmt.Errorf("xpath: parse %q: trailing input at %q", src, p.peek())
	}
	if p.slot != len(slots) {
		return nil, fmt.Errorf("xpath: template %q: %d of %d id slots parsed as literals", src, p.slot, len(slots))
	}
	return e, nil
}

// ParsePath parses a query that must be a location path, which is the form
// every top-level IrisNet query takes.
func ParsePath(src string) (*Path, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	path, ok := e.(*Path)
	if !ok {
		return nil, fmt.Errorf("xpath: query %q is not a location path", src)
	}
	return path, nil
}

// MustParsePath parses a location path and panics on failure; for tests and
// compiled-in queries.
func MustParsePath(src string) *Path {
	p, err := ParsePath(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	toks []Token
	pos  int
	src  string
	// slots lists the id slots of a template parse (ParseTemplate) in text
	// order; slot counts the ones parsed so far. Tokens are consumed in text
	// order, so the next literal token is a slot when it opens at the next
	// span.
	slots []slotSpan
	slot  int
}

func (p *parser) peek() Token         { return p.toks[p.pos] }
func (p *parser) next() Token         { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k TokenKind) bool { return p.toks[p.pos].Kind == k }

func (p *parser) expect(k TokenKind, what string) (Token, error) {
	if !p.at(k) {
		return Token{}, fmt.Errorf("xpath: parse %q: expected %s, found %q at offset %d",
			p.src, what, p.peek(), p.peek().Pos)
	}
	return p.next(), nil
}

// parseExpr parses an OrExpr, the lowest-precedence production.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(TokOr) {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: TokOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.at(TokAnd) {
		p.next()
		r, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: TokAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseEquality() (Expr, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.at(TokEq) || p.at(TokNeq) {
		op := p.next().Kind
		r, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseRelational() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for p.at(TokLt) || p.at(TokLe) || p.at(TokGt) || p.at(TokGe) {
		op := p.next().Kind
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(TokPlus) || p.at(TokMinus) {
		op := p.next().Kind
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(TokMultiply) || p.at(TokDiv) || p.at(TokMod) {
		op := p.next().Kind
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.at(TokMinus) {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{X: x}, nil
	}
	return p.parseUnion()
}

func (p *parser) parseUnion() (Expr, error) {
	l, err := p.parsePathExpr()
	if err != nil {
		return nil, err
	}
	for p.at(TokPipe) {
		p.next()
		r, err := p.parsePathExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: TokPipe, L: l, R: r}
	}
	return l, nil
}

// parsePathExpr parses either a primary expression (literal, number,
// function call, parenthesized expression) or a location path.
func (p *parser) parsePathExpr() (Expr, error) {
	switch p.peek().Kind {
	case TokLiteral:
		t := p.next()
		if p.slot < len(p.slots) && p.slots[p.slot].lo == t.Pos+1 {
			p.slot++
			return &Literal{Slot: p.slot}, nil
		}
		return &Literal{Value: t.Text}, nil
	case TokNumber:
		t := p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("xpath: parse %q: bad number %q", p.src, t.Text)
		}
		return &Number{Value: v}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case TokName:
		// Function call if followed by '('; otherwise a relative path.
		if p.toks[p.pos+1].Kind == TokLParen && !isNodeTestName(p.peek().Text) {
			return p.parseCall()
		}
		return p.parseLocationPath()
	case TokSlash, TokDoubleSlash, TokDot, TokDotDot, TokAt, TokStar, TokAxis:
		return p.parseLocationPath()
	default:
		return nil, fmt.Errorf("xpath: parse %q: unexpected token %q at offset %d",
			p.src, p.peek(), p.peek().Pos)
	}
}

func isNodeTestName(s string) bool { return s == "text" || s == "node" }

func (p *parser) parseCall() (Expr, error) {
	name := p.next().Text
	if _, err := p.expect(TokLParen, "("); err != nil {
		return nil, err
	}
	var args []Expr
	if !p.at(TokRParen) {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.at(TokComma) {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return nil, err
	}
	return &Call{Name: name, Args: args}, nil
}

func (p *parser) parseLocationPath() (Expr, error) {
	path := &Path{}
	switch p.peek().Kind {
	case TokSlash:
		p.next()
		path.Absolute = true
		if !p.startsStep() {
			return path, nil // bare "/"
		}
	case TokDoubleSlash:
		p.next()
		path.Absolute = true
		path.Steps = append(path.Steps, &LocStep{
			Axis: AxisDescendantOrSelf,
			Test: NodeTest{AnyNode: true},
		})
	}
	for {
		step, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, step)
		if p.at(TokSlash) {
			p.next()
			continue
		}
		if p.at(TokDoubleSlash) {
			p.next()
			path.Steps = append(path.Steps, &LocStep{
				Axis: AxisDescendantOrSelf,
				Test: NodeTest{AnyNode: true},
			})
			continue
		}
		return path, nil
	}
}

func (p *parser) startsStep() bool {
	switch p.peek().Kind {
	case TokName, TokStar, TokAt, TokDot, TokDotDot, TokAxis:
		return true
	}
	return false
}

func (p *parser) parseStep() (*LocStep, error) {
	step := &LocStep{Axis: AxisChild}
	switch p.peek().Kind {
	case TokDot:
		p.next()
		step.Axis = AxisSelf
		step.Test = NodeTest{AnyNode: true}
		return p.parsePredicates(step)
	case TokDotDot:
		p.next()
		step.Axis = AxisParent
		step.Test = NodeTest{AnyNode: true}
		return p.parsePredicates(step)
	case TokAt:
		p.next()
		step.Axis = AxisAttribute
	case TokAxis:
		name := p.next().Text
		axis, ok := axisByName[name]
		if !ok {
			return nil, fmt.Errorf("xpath: parse %q: unsupported axis %q (only the unordered fragment is implemented)", p.src, name)
		}
		step.Axis = axis
	}
	// Node test.
	switch p.peek().Kind {
	case TokStar:
		p.next()
		step.Test = NodeTest{Name: "*"}
	case TokName:
		name := p.next().Text
		if p.at(TokLParen) && isNodeTestName(name) {
			p.next()
			if _, err := p.expect(TokRParen, ")"); err != nil {
				return nil, err
			}
			switch name {
			case "text":
				step.Test = NodeTest{Text: true}
			case "node":
				step.Test = NodeTest{AnyNode: true}
			}
		} else {
			step.Test = NodeTest{Name: name}
		}
	default:
		return nil, fmt.Errorf("xpath: parse %q: expected node test, found %q at offset %d",
			p.src, p.peek(), p.peek().Pos)
	}
	return p.parsePredicates(step)
}

func (p *parser) parsePredicates(step *LocStep) (*LocStep, error) {
	for p.at(TokLBracket) {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket, "]"); err != nil {
			return nil, err
		}
		step.Preds = append(step.Preds, e)
	}
	return step, nil
}
