package xpath

import (
	"fmt"
	"strings"
)

// Axis identifies the axis of a location step. Only the unordered axes of
// XPath 1.0 are supported; ordering-dependent axes (following-sibling and
// friends) are rejected at parse time, matching Section 3.1 of the paper.
type Axis int

// Supported axes.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisAttribute
)

var axisNames = map[Axis]string{
	AxisChild:            "child",
	AxisDescendant:       "descendant",
	AxisDescendantOrSelf: "descendant-or-self",
	AxisSelf:             "self",
	AxisParent:           "parent",
	AxisAncestor:         "ancestor",
	AxisAncestorOrSelf:   "ancestor-or-self",
	AxisAttribute:        "attribute",
}

func (a Axis) String() string { return axisNames[a] }

// axisByName maps explicit axis specifiers to Axis values.
var axisByName = map[string]Axis{
	"child":              AxisChild,
	"descendant":         AxisDescendant,
	"descendant-or-self": AxisDescendantOrSelf,
	"self":               AxisSelf,
	"parent":             AxisParent,
	"ancestor":           AxisAncestor,
	"ancestor-or-self":   AxisAncestorOrSelf,
	"attribute":          AxisAttribute,
}

// NodeTest is the node test of a location step.
type NodeTest struct {
	// Name is the element (or attribute) name to match; "*" matches any.
	Name string
	// Text is true for a text() node test.
	Text bool
	// AnyNode is true for a node() node test.
	AnyNode bool
}

func (t NodeTest) String() string {
	switch {
	case t.Text:
		return "text()"
	case t.AnyNode:
		return "node()"
	default:
		return t.Name
	}
}

// Expr is an XPath expression node.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Path is a location path: an optional absolute marker followed by steps.
// A Path may also start from a primary expression filter (not needed for
// the IrisNet fragment, so Steps always begin at the context or root).
type Path struct {
	Absolute bool
	Steps    []*LocStep
}

// LocStep is one location step: axis, node test and predicates.
type LocStep struct {
	Axis  Axis
	Test  NodeTest
	Preds []Expr
}

// Binary is a binary operation. Op is one of the operator token kinds
// (TokOr, TokAnd, TokEq, TokNeq, TokLt, TokLe, TokGt, TokGe, TokPlus,
// TokMinus, TokMultiply, TokDiv, TokMod, TokPipe).
type Binary struct {
	Op   TokenKind
	L, R Expr
}

// Unary is unary minus.
type Unary struct {
	X Expr
}

// Call is a function call.
type Call struct {
	Name string
	Args []Expr
}

// Literal is a string literal.
type Literal struct {
	Value string
}

// Number is a numeric literal.
type Number struct {
	Value float64
}

func (*Path) isExpr()    {}
func (*Binary) isExpr()  {}
func (*Unary) isExpr()   {}
func (*Call) isExpr()    {}
func (*Literal) isExpr() {}
func (*Number) isExpr()  {}

var opText = map[TokenKind]string{
	TokOr: "or", TokAnd: "and", TokEq: "=", TokNeq: "!=",
	TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">=",
	TokPlus: "+", TokMinus: "-", TokMultiply: "*", TokDiv: "div",
	TokMod: "mod", TokPipe: "|",
}

func (p *Path) String() string {
	var sb strings.Builder
	if p.Absolute {
		sb.WriteByte('/')
	}
	for i, s := range p.Steps {
		if i > 0 {
			sb.WriteByte('/')
		}
		sb.WriteString(s.String())
	}
	if p.Absolute && len(p.Steps) == 0 {
		return "/"
	}
	return sb.String()
}

func (s *LocStep) String() string {
	var sb strings.Builder
	switch s.Axis {
	case AxisChild:
		sb.WriteString(s.Test.String())
	case AxisAttribute:
		sb.WriteByte('@')
		sb.WriteString(s.Test.String())
	case AxisSelf:
		if s.Test.AnyNode {
			sb.WriteByte('.')
		} else {
			sb.WriteString("self::")
			sb.WriteString(s.Test.String())
		}
	case AxisParent:
		if s.Test.AnyNode {
			sb.WriteString("..")
		} else {
			sb.WriteString("parent::")
			sb.WriteString(s.Test.String())
		}
	case AxisDescendantOrSelf:
		if s.Test.AnyNode && len(s.Preds) == 0 {
			// printed as part of // by Path.String callers; fall back
			sb.WriteString("descendant-or-self::node()")
		} else {
			sb.WriteString("descendant-or-self::")
			sb.WriteString(s.Test.String())
		}
	default:
		sb.WriteString(s.Axis.String())
		sb.WriteString("::")
		sb.WriteString(s.Test.String())
	}
	for _, p := range s.Preds {
		sb.WriteByte('[')
		sb.WriteString(p.String())
		sb.WriteByte(']')
	}
	return sb.String()
}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, opText[b.Op], b.R)
}

func (u *Unary) String() string { return fmt.Sprintf("(-%s)", u.X) }

func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(args, ", "))
}

func (l *Literal) String() string { return fmt.Sprintf("%q", l.Value) }

func (n *Number) String() string {
	if n.Value == float64(int64(n.Value)) {
		return fmt.Sprintf("%d", int64(n.Value))
	}
	return fmt.Sprintf("%g", n.Value)
}
