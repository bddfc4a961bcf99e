package xpath

import "irisnet/internal/xmldb"

// FreshnessForm is a consistency-class predicate compiled to the linear
// form g(ts, now) = A + B*ts + C*now, normalised so the predicate holds
// iff g >= 0 and B > 0 (the predicate must eventually fail as the data
// ages, i.e. as ts falls further behind now). For the paper's canonical
// freshness predicate @ts >= now() - 30 the form is g = 30 + ts - now.
//
// The point of the compilation is the freshness *margin*: how many
// seconds of additional staleness the cached unit could have absorbed
// while still satisfying the predicate. Dividing g by B expresses that
// slack in seconds of timestamp movement.
type FreshnessForm struct {
	A, B, C float64
}

// Margin returns the slack, in seconds, by which a node timestamped ts
// satisfies the predicate at time now. Zero means the predicate was on
// the edge of failing; negative means it would have failed (callers only
// invoke this for nodes that passed, so negatives indicate a predicate
// outside the compiled subset rounded through float error).
func (f *FreshnessForm) Margin(ts, now float64) float64 {
	return (f.A + f.B*ts + f.C*now) / f.B
}

// linForm is an intermediate linear combination a + b*@ts + c*now().
type linForm struct {
	a, b, c float64
}

// CompileFreshness compiles a consistency-class conjunct into a
// FreshnessForm. It recognises relational comparisons whose operands are
// linear combinations of @ts, now() and numeric literals — which covers
// every predicate ClassifyPredicate puts in the consistency class today —
// and rejects anything else (ok=false), in which case the evaluator still
// counts the check but reports no margin.
func CompileFreshness(e Expr) (*FreshnessForm, bool) {
	b, ok := e.(*Binary)
	if !ok {
		return nil, false
	}
	l, lok := linOf(b.L)
	r, rok := linOf(b.R)
	if !lok || !rok {
		return nil, false
	}
	var g linForm
	switch b.Op {
	case TokGe, TokGt:
		// L >= R  ⇒  g = L - R >= 0.
		g = linForm{a: l.a - r.a, b: l.b - r.b, c: l.c - r.c}
	case TokLe, TokLt:
		// L <= R  ⇒  g = R - L >= 0.
		g = linForm{a: r.a - l.a, b: r.b - l.b, c: r.c - l.c}
	default:
		return nil, false
	}
	if g.b <= 0 {
		// Aging never falsifies the predicate (or tightens it the wrong
		// way round); a margin in seconds-of-staleness is meaningless.
		return nil, false
	}
	return &FreshnessForm{A: g.a, B: g.b, C: g.c}, true
}

// linOf reduces an expression to a + b*@ts + c*now(), when possible.
func linOf(e Expr) (linForm, bool) {
	switch v := e.(type) {
	case *Number:
		return linForm{a: v.Value}, true
	case *Path:
		if isAttrRef(v, xmldb.AttrTimestamp) {
			return linForm{b: 1}, true
		}
	case *Call:
		if v.Name == "now" && len(v.Args) == 0 {
			return linForm{c: 1}, true
		}
	case *Unary:
		if x, ok := linOf(v.X); ok {
			return linForm{a: -x.a, b: -x.b, c: -x.c}, true
		}
	case *Binary:
		l, lok := linOf(v.L)
		r, rok := linOf(v.R)
		if !lok || !rok {
			return linForm{}, false
		}
		switch v.Op {
		case TokPlus:
			return linForm{a: l.a + r.a, b: l.b + r.b, c: l.c + r.c}, true
		case TokMinus:
			return linForm{a: l.a - r.a, b: l.b - r.b, c: l.c - r.c}, true
		}
	}
	return linForm{}, false
}
