package xpatheval

import (
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

// Fast predicates: an allocation-free compiled form for the predicate
// shapes that dominate sensor workloads — comparisons of a one-step
// relative path (a field child or an attribute) against a literal, and
// conjunctions and disjunctions of those. Two evaluators use them per
// candidate node: the indexed query path (internal/qeg), which compiles
// them with the plan, and this package's own Select, which compiles each
// location step's predicates once per call (evaluator.fastPreds). Anything
// outside the supported shapes, or a term Eval declines, falls back to the
// full evaluator, so a FastPred never changes a result, only the cost of
// computing it.

// Term operators. Relational terms always compare numerically, mirroring
// compareRelational; equality terms compare strings or numbers depending
// on the literal's type, mirroring compareEquality.
const (
	feExists = iota // bare path: [field] / [@attr]
	feEq
	feNeq
	feLt
	feLe
	feGt
	feGe
)

type fastTerm struct {
	op      uint8
	attr    bool    // lhs is @name rather than a child element
	name    string  // lhs child/attribute name
	str     string  // rhs for string-equality forms
	slot    int     // rhs is this slot literal of a shape template, not str
	num     float64 // rhs for numeric forms
	numeric bool
}

// FastPred is one compiled predicate: a conjunction of fast terms and of
// disjunctions, each of which holds when one of its FastPreds does.
type FastPred struct {
	terms []fastTerm
	ors   [][]*FastPred
}

// CompileFastPred compiles e into its fast form, or returns nil when e
// falls outside the supported shapes.
func CompileFastPred(e xpath.Expr) *FastPred {
	p := &FastPred{}
	if !p.compile(e) {
		return nil
	}
	return p
}

// compile adds e to the conjunction p.
func (p *FastPred) compile(e xpath.Expr) bool {
	if v, ok := e.(*xpath.Binary); ok {
		switch v.Op {
		case xpath.TokAnd:
			return p.compile(v.L) && p.compile(v.R)
		case xpath.TokOr:
			var alts []*FastPred
			if !compileAlts(v, &alts) {
				return false
			}
			p.ors = append(p.ors, alts)
			return true
		}
	}
	t, ok := compileTerm(e)
	if ok {
		p.terms = append(p.terms, t)
	}
	return ok
}

// compileAlts appends the fast form of each alternative of e, a chain of
// or, to alts.
func compileAlts(e xpath.Expr, alts *[]*FastPred) bool {
	if b, ok := e.(*xpath.Binary); ok && b.Op == xpath.TokOr {
		return compileAlts(b.L, alts) && compileAlts(b.R, alts)
	}
	alt := CompileFastPred(e)
	*alts = append(*alts, alt)
	return alt != nil
}

// compileTerm compiles one comparison or bare path.
func compileTerm(e xpath.Expr) (fastTerm, bool) {
	switch v := e.(type) {
	case *xpath.Binary:
		var op uint8
		switch v.Op {
		case xpath.TokEq:
			op = feEq
		case xpath.TokNeq:
			op = feNeq
		case xpath.TokLt:
			op = feLt
		case xpath.TokLe:
			op = feLe
		case xpath.TokGt:
			op = feGt
		case xpath.TokGe:
			op = feGe
		default:
			return fastTerm{}, false
		}
		attr, name, ok := fastLHS(v.L)
		str, slot, num, isNum, lok := fastRHS(v.R)
		if !ok || !lok {
			// Literal on the left: mirror the comparison.
			attr, name, ok = fastLHS(v.R)
			str, slot, num, isNum, lok = fastRHS(v.L)
			if !ok || !lok {
				return fastTerm{}, false
			}
			op = mirrorOp(op)
		}
		t := fastTerm{op: op, attr: attr, name: name}
		if op == feEq || op == feNeq {
			if isNum {
				t.numeric = true
				t.num = num
			} else {
				t.str, t.slot = str, slot
			}
		} else if slot > 0 {
			// A slot's number is known only per query: leave the term to
			// the full evaluator.
			return fastTerm{}, false
		} else {
			// Relational comparisons coerce both sides to numbers.
			t.numeric = true
			if isNum {
				t.num = num
			} else {
				t.num = stringToNumber(str)
			}
		}
		return t, true
	case *xpath.Path:
		attr, name, ok := fastLHS(v)
		return fastTerm{op: feExists, attr: attr, name: name}, ok
	}
	return fastTerm{}, false
}

// fastLHS recognizes a one-step relative path: child::name or @name, with
// no predicates and no wildcards.
func fastLHS(e xpath.Expr) (attr bool, name string, ok bool) {
	p, isPath := e.(*xpath.Path)
	if !isPath || p.Absolute || len(p.Steps) != 1 {
		return false, "", false
	}
	s := p.Steps[0]
	t := s.Test
	if len(s.Preds) != 0 || t.Text || t.AnyNode || t.Name == "" || t.Name == "*" {
		return false, "", false
	}
	switch s.Axis {
	case xpath.AxisChild:
		return false, t.Name, true
	case xpath.AxisAttribute:
		return true, t.Name, true
	}
	return false, "", false
}

func fastRHS(e xpath.Expr) (str string, slot int, num float64, isNum bool, ok bool) {
	switch v := e.(type) {
	case *xpath.Literal:
		return v.Value, v.Slot, 0, false, true
	case *xpath.Number:
		return "", 0, v.Value, true, true
	}
	return "", 0, 0, false, false
}

// mirrorOp swaps the comparison direction for literal-on-the-left forms
// ('5' < price  ==  price > 5). Equality forms are symmetric.
func mirrorOp(op uint8) uint8 {
	switch op {
	case feLt:
		return feGt
	case feLe:
		return feGe
	case feGt:
		return feLt
	case feGe:
		return feLe
	}
	return op
}

// Eval evaluates the predicate against n with the full evaluator's
// semantics. ok is false when a matched child's string-value would need a
// subtree walk (the child has element children) and that decides the
// result — the caller must fall back to EvalBool then. slots binds the slot
// literals of a shape template (nil without them). The success path
// performs no allocations.
func (p *FastPred) Eval(n *xmldb.Node, slots []string) (result, ok bool) {
	for i := range p.terms {
		r, o := p.terms[i].eval(n, slots)
		if !o {
			return false, false
		}
		if !r {
			return false, true
		}
	}
	for _, alts := range p.ors {
		// One alternative that holds decides the disjunction, whatever the
		// others would say; otherwise one that declined leaves it open.
		held, declined := false, false
		for _, a := range alts {
			r, o := a.Eval(n, slots)
			if o && r {
				held = true
				break
			}
			declined = declined || !o
		}
		if !held {
			return false, !declined
		}
	}
	return true, true
}

func (t *fastTerm) eval(n *xmldb.Node, slots []string) (result, ok bool) {
	if t.attr {
		for _, a := range n.Attrs {
			if a.Name != t.name {
				continue
			}
			if t.op == feExists {
				return true, true
			}
			// Attribute node-sets hold exactly one node.
			return t.compare(a.Value, slots), true
		}
		return false, true // empty node-set: exists and comparisons all false
	}
	sawComplex := false
	for _, c := range n.Children {
		if c.Name != t.name {
			continue
		}
		if t.op == feExists {
			return true, true
		}
		if len(c.Children) != 0 {
			// String-value needs the subtree; defer to the full evaluator
			// unless an earlier/later leaf already satisfies the term.
			sawComplex = true
			continue
		}
		if t.compare(c.Text, slots) {
			return true, true
		}
	}
	if sawComplex {
		return false, false
	}
	return false, true
}

// compare applies the term's comparison to one node's string-value,
// following compareEquality/compareRelational for a singleton node-set
// against a literal. NaN propagates IEEE-style: any relational or equality
// comparison with NaN is false, and != with NaN is true.
func (t *fastTerm) compare(sv string, slots []string) bool {
	if t.numeric {
		v := stringToNumber(sv)
		switch t.op {
		case feEq:
			return v == t.num
		case feNeq:
			return v != t.num
		case feLt:
			return v < t.num
		case feLe:
			return v <= t.num
		case feGt:
			return v > t.num
		default:
			return v >= t.num
		}
	}
	str := t.str
	if t.slot > 0 {
		str = slots[t.slot-1]
	}
	if t.op == feNeq {
		return sv != str
	}
	return sv == str
}
