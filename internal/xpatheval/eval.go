package xpatheval

import (
	"fmt"
	"math"

	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

// Context carries evaluation state: the document root for absolute paths
// and the clock for the now() extension function (query-based consistency).
type Context struct {
	// Root is the document root used by absolute location paths.
	Root *xmldb.Node
	// Now returns the current time in seconds; used by the now() function.
	// When nil, now() evaluates to NaN.
	Now func() float64
	// Slots binds the slot literals of a shape template (xpath.Literal.Slot)
	// to one query's id values; nil for an expression without slots.
	Slots []string
}

// Eval evaluates an expression with n as the context node.
func Eval(e xpath.Expr, ctx *Context, n *xmldb.Node) (Value, error) {
	ev := &evaluator{ctx: ctx}
	return ev.eval(e, n)
}

// EvalBool evaluates an expression and coerces the result to boolean,
// which is the predicate use case.
func EvalBool(e xpath.Expr, ctx *Context, n *xmldb.Node) (bool, error) {
	v, err := Eval(e, ctx, n)
	if err != nil {
		return false, err
	}
	return ToBool(v), nil
}

// Select evaluates a query that must produce a node-set (the top-level
// query use case) against the document rooted at root.
func Select(e xpath.Expr, ctx *Context, root *xmldb.Node) (NodeSet, error) {
	v, err := Eval(e, ctx, root)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpatheval: query result is %s, not node-set", TypeName(v))
	}
	return ns, nil
}

type evaluator struct {
	ctx *Context
	// fast holds each location step's predicates in their fast form (a nil
	// entry has none), compiled the first time the step runs, so one Select
	// compiles each step once however many context nodes reach it.
	fast map[*xpath.LocStep][]*FastPred
	// slow sends every predicate through eval, never its fast form: the
	// reference the differential tests hold the fast forms to.
	slow bool
}

func (ev *evaluator) eval(e xpath.Expr, n *xmldb.Node) (Value, error) {
	switch v := e.(type) {
	case *xpath.Literal:
		return String(v.Bound(ev.ctx.Slots)), nil
	case *xpath.Number:
		return Number(v.Value), nil
	case *xpath.Unary:
		x, err := ev.eval(v.X, n)
		if err != nil {
			return nil, err
		}
		return Number(-ToNumber(x)), nil
	case *xpath.Binary:
		return ev.evalBinary(v, n)
	case *xpath.Call:
		return ev.evalCall(v, n)
	case *xpath.Path:
		return ev.evalPath(v, n)
	default:
		return nil, fmt.Errorf("xpatheval: unknown expression node %T", e)
	}
}

func (ev *evaluator) evalBinary(b *xpath.Binary, n *xmldb.Node) (Value, error) {
	switch b.Op {
	case xpath.TokOr:
		l, err := ev.eval(b.L, n)
		if err != nil {
			return nil, err
		}
		if ToBool(l) {
			return Bool(true), nil
		}
		r, err := ev.eval(b.R, n)
		if err != nil {
			return nil, err
		}
		return Bool(ToBool(r)), nil
	case xpath.TokAnd:
		l, err := ev.eval(b.L, n)
		if err != nil {
			return nil, err
		}
		if !ToBool(l) {
			return Bool(false), nil
		}
		r, err := ev.eval(b.R, n)
		if err != nil {
			return nil, err
		}
		return Bool(ToBool(r)), nil
	case xpath.TokPipe:
		l, err := ev.eval(b.L, n)
		if err != nil {
			return nil, err
		}
		r, err := ev.eval(b.R, n)
		if err != nil {
			return nil, err
		}
		ln, okL := l.(NodeSet)
		rn, okR := r.(NodeSet)
		if !okL || !okR {
			return nil, fmt.Errorf("xpatheval: union operands must be node-sets")
		}
		return unionNodeSets(ln, rn), nil
	}

	l, err := ev.eval(b.L, n)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(b.R, n)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case xpath.TokEq, xpath.TokNeq:
		return Bool(compareEquality(l, r, b.Op == xpath.TokNeq)), nil
	case xpath.TokLt, xpath.TokLe, xpath.TokGt, xpath.TokGe:
		return Bool(compareRelational(l, r, b.Op)), nil
	case xpath.TokPlus:
		return Number(ToNumber(l) + ToNumber(r)), nil
	case xpath.TokMinus:
		return Number(ToNumber(l) - ToNumber(r)), nil
	case xpath.TokMultiply:
		return Number(ToNumber(l) * ToNumber(r)), nil
	case xpath.TokDiv:
		return Number(ToNumber(l) / ToNumber(r)), nil
	case xpath.TokMod:
		return Number(math.Mod(ToNumber(l), ToNumber(r))), nil
	default:
		return nil, fmt.Errorf("xpatheval: unknown binary operator")
	}
}

func unionNodeSets(a, b NodeSet) NodeSet {
	seen := make(map[*xmldb.Node]bool, len(a)+len(b))
	out := make(NodeSet, 0, len(a)+len(b))
	for _, n := range a {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range b {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// compareEquality implements the XPath 1.0 = and != semantics, including
// the existential behavior of node-sets.
func compareEquality(l, r Value, neq bool) bool {
	ln, lIsNS := l.(NodeSet)
	rn, rIsNS := r.(NodeSet)
	eq := func(a, b string) bool {
		if neq {
			return a != b
		}
		return a == b
	}
	eqNum := func(a, b float64) bool {
		if neq {
			return a != b
		}
		return a == b
	}
	switch {
	case lIsNS && rIsNS:
		for _, a := range ln {
			for _, b := range rn {
				if eq(StringValue(a), StringValue(b)) {
					return true
				}
			}
		}
		return false
	case lIsNS || rIsNS:
		ns, other := ln, r
		if rIsNS {
			ns, other = rn, l
		}
		switch o := other.(type) {
		case Number:
			for _, a := range ns {
				if eqNum(stringToNumber(StringValue(a)), float64(o)) {
					return true
				}
			}
			return false
		case String:
			for _, a := range ns {
				if eq(StringValue(a), string(o)) {
					return true
				}
			}
			return false
		case Bool:
			return eqBools(len(ns) > 0, bool(o), neq)
		}
		return false
	default:
		if _, ok := l.(Bool); ok {
			return eqBools(ToBool(l), ToBool(r), neq)
		}
		if _, ok := r.(Bool); ok {
			return eqBools(ToBool(l), ToBool(r), neq)
		}
		if _, ok := l.(Number); ok {
			return eqNum(ToNumber(l), ToNumber(r))
		}
		if _, ok := r.(Number); ok {
			return eqNum(ToNumber(l), ToNumber(r))
		}
		return eq(ToString(l), ToString(r))
	}
}

func eqBools(a, b, neq bool) bool {
	if neq {
		return a != b
	}
	return a == b
}

// compareRelational implements <, <=, >, >= with number coercion and
// existential node-set semantics.
func compareRelational(l, r Value, op xpath.TokenKind) bool {
	cmp := func(a, b float64) bool {
		switch op {
		case xpath.TokLt:
			return a < b
		case xpath.TokLe:
			return a <= b
		case xpath.TokGt:
			return a > b
		default:
			return a >= b
		}
	}
	ln, lIsNS := l.(NodeSet)
	rn, rIsNS := r.(NodeSet)
	switch {
	case lIsNS && rIsNS:
		for _, a := range ln {
			for _, b := range rn {
				if cmp(stringToNumber(StringValue(a)), stringToNumber(StringValue(b))) {
					return true
				}
			}
		}
		return false
	case lIsNS:
		rv := ToNumber(r)
		for _, a := range ln {
			if cmp(stringToNumber(StringValue(a)), rv) {
				return true
			}
		}
		return false
	case rIsNS:
		lv := ToNumber(l)
		for _, b := range rn {
			if cmp(lv, stringToNumber(StringValue(b))) {
				return true
			}
		}
		return false
	default:
		return cmp(ToNumber(l), ToNumber(r))
	}
}

// evalPath evaluates a location path from the context node (or the root
// for absolute paths), producing a node-set.
func (ev *evaluator) evalPath(p *xpath.Path, n *xmldb.Node) (Value, error) {
	var cur NodeSet
	if p.Absolute {
		if ev.ctx == nil || ev.ctx.Root == nil {
			return nil, fmt.Errorf("xpatheval: absolute path with no document root in context")
		}
		cur = NodeSet{ev.ctx.Root}
		if len(p.Steps) > 0 && p.Steps[0].Axis == xpath.AxisChild {
			// An absolute path's first step selects the root element itself
			// when its name matches: the conceptual document node above the
			// root has the root element as its only child.
			matched, err := ev.applyStepToRootElement(p.Steps[0], ev.ctx.Root)
			if err != nil {
				return nil, err
			}
			cur = matched
			return ev.applySteps(p.Steps[1:], cur)
		}
	} else {
		cur = NodeSet{n}
	}
	return ev.applySteps(p.Steps, cur)
}

// applyStepToRootElement treats the document root element as the candidate
// for an absolute path's first child step.
func (ev *evaluator) applyStepToRootElement(s *xpath.LocStep, root *xmldb.Node) (NodeSet, error) {
	if !matchTest(s.Test, root) {
		return nil, nil
	}
	ok, err := ev.passesPreds(s.Preds, ev.fastPreds(s), root)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return NodeSet{root}, nil
}

func (ev *evaluator) applySteps(steps []*xpath.LocStep, cur NodeSet) (Value, error) {
	for _, s := range steps {
		var next NodeSet
		// cur holds distinct nodes, and the child, attribute and self axes
		// reach distinct candidates from distinct context nodes (a node has
		// one parent; attribute and text nodes are built fresh per visit), so
		// only the other axes, from more than one context node, need the
		// duplicate check.
		var seen map[*xmldb.Node]bool
		if len(cur) > 1 && s.Axis != xpath.AxisChild && s.Axis != xpath.AxisAttribute && s.Axis != xpath.AxisSelf {
			seen = map[*xmldb.Node]bool{}
		}
		fast := ev.fastPreds(s)
		keep := func(cand *xmldb.Node) error {
			if seen[cand] {
				return nil
			}
			ok, err := ev.passesPreds(s.Preds, fast, cand)
			if err != nil || !ok {
				return err
			}
			if seen != nil {
				seen[cand] = true
			}
			next = append(next, cand)
			return nil
		}
		for _, c := range cur {
			if err := eachCandidate(s, c, keep); err != nil {
				return nil, err
			}
		}
		cur = next
		if len(cur) == 0 {
			return NodeSet(nil), nil
		}
	}
	return cur, nil
}

// fastPreds returns s's predicates in their fast form, index-aligned with
// s.Preds (a nil entry has none), compiled on the step's first use; nil
// sends every predicate through eval.
func (ev *evaluator) fastPreds(s *xpath.LocStep) []*FastPred {
	if ev.slow || len(s.Preds) == 0 {
		return nil
	}
	fast, ok := ev.fast[s]
	if !ok {
		fast = make([]*FastPred, len(s.Preds))
		for i, p := range s.Preds {
			fast[i] = CompileFastPred(p)
		}
		if ev.fast == nil {
			ev.fast = map[*xpath.LocStep][]*FastPred{}
		}
		ev.fast[s] = fast
	}
	return fast
}

// passesPreds reports whether n satisfies every predicate. One with a fast
// form is decided by it, allocation-free, unless the form declines
// (ok=false); the rest go through eval. FastPred.Eval has the full
// evaluator's semantics, so the route never changes the answer.
func (ev *evaluator) passesPreds(preds []xpath.Expr, fast []*FastPred, n *xmldb.Node) (bool, error) {
	for i, p := range preds {
		if fast != nil && fast[i] != nil {
			if r, ok := fast[i].Eval(n, ev.ctx.Slots); ok {
				if !r {
					return false, nil
				}
				continue
			}
		}
		v, err := ev.eval(p, n)
		if err != nil {
			return false, err
		}
		if !ToBool(v) {
			return false, nil
		}
	}
	return true, nil
}

// eachCandidate calls keep on every node on the step's axis from c that
// matches the node test, before predicates, and stops at keep's first error.
func eachCandidate(s *xpath.LocStep, c *xmldb.Node, keep func(*xmldb.Node) error) error {
	switch s.Axis {
	case xpath.AxisChild:
		if s.Test.Text {
			if c.Text != "" {
				return keep(textNode(c))
			}
			return nil
		}
		for _, ch := range c.Children {
			if matchTest(s.Test, ch) {
				if err := keep(ch); err != nil {
					return err
				}
			}
		}
	case xpath.AxisAttribute:
		for _, a := range c.Attrs {
			if s.Test.Name == "*" || s.Test.Name == a.Name {
				if err := keep(attrNode(c, a.Name, a.Value)); err != nil {
					return err
				}
			}
		}
	case xpath.AxisSelf:
		if matchTest(s.Test, c) {
			return keep(c)
		}
	case xpath.AxisParent:
		if p := c.Parent; p != nil && matchTest(s.Test, p) {
			return keep(p)
		}
	case xpath.AxisAncestor, xpath.AxisAncestorOrSelf:
		start := c.Parent
		if s.Axis == xpath.AxisAncestorOrSelf {
			start = c
		}
		for a := start; a != nil; a = a.Parent {
			if matchTest(s.Test, a) {
				if err := keep(a); err != nil {
					return err
				}
			}
		}
	case xpath.AxisDescendant, xpath.AxisDescendantOrSelf:
		var err error
		c.Walk(func(x *xmldb.Node) bool {
			self := x == c && s.Axis == xpath.AxisDescendant
			switch {
			case err != nil:
			case s.Test.Text:
				if x.Text != "" && !self {
					err = keep(textNode(x))
				}
			case !self && matchTest(s.Test, x):
				err = keep(x)
			}
			return err == nil
		})
		return err
	default:
		return fmt.Errorf("xpatheval: unsupported axis %v", s.Axis)
	}
	return nil
}

func matchTest(t xpath.NodeTest, n *xmldb.Node) bool {
	switch {
	case t.AnyNode:
		return true
	case t.Text:
		// Character data is folded into Node.Text; text() is materialized
		// by the child and descendant axes, not by a node match.
		return false
	case t.Name == "*":
		return !IsAttrNode(n)
	default:
		return n.Name == t.Name
	}
}

// textNode wraps an element's folded character data as a synthetic text
// node for text() selections.
func textNode(owner *xmldb.Node) *xmldb.Node {
	return &xmldb.Node{Name: "#text", Text: owner.Text, Parent: owner}
}
