package xpath

import (
	"strconv"
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
	String() string
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

// Literal is a string literal. In a shape template (ParseTemplate) an id
// literal is a slot: Slot is its 1-based position among the template's
// slots and Value is empty, because the value belongs to each query of the
// shape and is read through a binding (Bound).
type Literal struct {
	Value string
	Slot  int
}

// Bound returns the literal's value under a binding: a slot reads its entry
// of slots, any other literal its own Value.
func (l *Literal) Bound(slots []string) string {
	if l.Slot > 0 && l.Slot <= len(slots) {
		return slots[l.Slot-1]
	}
	return l.Value
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

func (p *Path) String() string    { return exprString(p) }
func (b *Binary) String() string  { return exprString(b) }
func (u *Unary) String() string   { return exprString(u) }
func (c *Call) String() string    { return exprString(c) }
func (l *Literal) String() string { return exprString(l) }
func (n *Number) String() string  { return exprString(n) }

func (s *LocStep) String() string {
	var sb strings.Builder
	WriteStep(&sb, s, nil)
	return sb.String()
}

func exprString(e Expr) string {
	var sb strings.Builder
	WriteExpr(&sb, e, nil)
	return sb.String()
}

// WriteExpr writes e's canonical text (what String returns) to sb, with slot
// literals bound to slots.
func WriteExpr(sb *strings.Builder, e Expr, slots []string) {
	switch v := e.(type) {
	case *Path:
		if v.Absolute {
			sb.WriteByte('/')
		}
		for i, s := range v.Steps {
			if i > 0 {
				sb.WriteByte('/')
			}
			WriteStep(sb, s, slots)
		}
	case *Binary:
		sb.WriteByte('(')
		WriteExpr(sb, v.L, slots)
		sb.WriteByte(' ')
		sb.WriteString(opText[v.Op])
		sb.WriteByte(' ')
		WriteExpr(sb, v.R, slots)
		sb.WriteByte(')')
	case *Unary:
		sb.WriteString("(-")
		WriteExpr(sb, v.X, slots)
		sb.WriteByte(')')
	case *Call:
		sb.WriteString(v.Name)
		sb.WriteByte('(')
		for i, a := range v.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			WriteExpr(sb, a, slots)
		}
		sb.WriteByte(')')
	case *Literal:
		sb.WriteString(strconv.Quote(v.Bound(slots)))
	case *Number:
		if v.Value == float64(int64(v.Value)) {
			sb.WriteString(strconv.FormatInt(int64(v.Value), 10))
		} else {
			sb.WriteString(strconv.FormatFloat(v.Value, 'g', -1, 64))
		}
	}
}

// WriteStep writes one location step's canonical text to sb, with slot
// literals in its predicates bound to slots.
func WriteStep(sb *strings.Builder, s *LocStep, slots []string) {
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
		WriteExpr(sb, p, slots)
		sb.WriteByte(']')
	}
}
