package xpath

import (
	"irisnet/internal/xmldb"
)

// IDPrefix extracts the longest leading sequence of steps of the form
// /elementname[@id='literal'] from an absolute location path, exactly as
// the paper's self-starting-query parser does (Section 3.4). It returns the
// ID path of the lowest common ancestor the query should be routed to, and
// the number of steps consumed. No schema information is needed.
//
// A step qualifies only if it is on the child axis, has a plain name test,
// and has exactly one predicate of the form @id = 'literal' (in either
// operand order). The first non-qualifying step ends the prefix: for the
// Figure 2 query the prefix ends at city, because the neighborhood step
// carries a disjunction of two ids.
func IDPrefix(p *Path) (xmldb.IDPath, int) {
	if p == nil || !p.Absolute {
		return nil, 0
	}
	var out xmldb.IDPath
	for i, s := range p.Steps {
		id, ok := stepIDEquality(s)
		if !ok {
			return out, i
		}
		out = append(out, xmldb.Step{Name: s.Test.Name, ID: id})
	}
	return out, len(p.Steps)
}

// stepIDEquality reports whether the step is child::name[@id='lit'] and
// returns the literal.
func stepIDEquality(s *LocStep) (string, bool) {
	if s.Axis != AxisChild || s.Test.Name == "" || s.Test.Name == "*" ||
		s.Test.Text || s.Test.AnyNode || len(s.Preds) != 1 {
		return "", false
	}
	return idEqualityLiteral(s.Preds[0])
}

// idEqualityLiteral matches @id = 'x' or 'x' = @id and returns x.
func idEqualityLiteral(e Expr) (string, bool) {
	b, ok := e.(*Binary)
	if !ok || b.Op != TokEq {
		return "", false
	}
	if isAttrRef(b.L, xmldb.AttrID) {
		if lit, ok := b.R.(*Literal); ok {
			return lit.Value, true
		}
	}
	if isAttrRef(b.R, xmldb.AttrID) {
		if lit, ok := b.L.(*Literal); ok {
			return lit.Value, true
		}
	}
	return "", false
}

// isAttrRef reports whether e is a relative single-step attribute path @name.
func isAttrRef(e Expr, name string) bool {
	p, ok := e.(*Path)
	if !ok || p.Absolute || len(p.Steps) != 1 {
		return false
	}
	s := p.Steps[0]
	return s.Axis == AxisAttribute && s.Test.Name == name && len(s.Preds) == 0
}

// Schema describes the element hierarchy of a service's document: which
// tags can appear as children of which, and which tags are IDable. It is
// provided by the service definition (the sensor deployment), not inferred
// from data, and is needed only for the two schema-dependent analyses the
// paper defines: nesting depth and LOCAL-INFO-REQUIRED.
type Schema struct {
	// Children maps an element tag to the tags that may appear below it.
	Children map[string][]string
	// IDable reports which element tags are IDable in this document.
	IDable map[string]bool
}

// InferSchema derives a Schema from a document instance, for deployments
// that ship none: the observed parent-child tag relation and the tags that
// appear with id attributes.
func InferSchema(doc *xmldb.Node) *Schema {
	s := &Schema{Children: map[string][]string{}, IDable: map[string]bool{doc.Name: true}}
	seen := map[string]map[string]bool{}
	doc.Walk(func(n *xmldb.Node) bool {
		if n.ID() != "" || n.Parent == nil {
			s.IDable[n.Name] = true
		}
		for _, c := range n.Children {
			if seen[n.Name] == nil {
				seen[n.Name] = map[string]bool{}
			}
			if !seen[n.Name][c.Name] {
				seen[n.Name][c.Name] = true
				s.Children[n.Name] = append(s.Children[n.Name], c.Name)
			}
		}
		return true
	})
	return s
}

// DescendantTags returns the set of tags reachable strictly below tag.
func (s *Schema) DescendantTags(tag string) map[string]bool {
	out := map[string]bool{}
	var visit func(t string)
	visit = func(t string) {
		for _, c := range s.Children[t] {
			if !out[c] {
				out[c] = true
				visit(c)
			}
		}
	}
	visit(tag)
	return out
}

// NestingDepth computes the nesting depth of a query per Definition 3.3:
// the maximum predicate-nesting level at which a location path that
// traverses over IDable nodes occurs. Queries of depth 0 can be answered by
// QEG using only local information; deeper queries force subtree gathering
// (Section 4).
func NestingDepth(e Expr, schema *Schema) int {
	return nestingDepth(e, schema, 0)
}

func nestingDepth(e Expr, schema *Schema, level int) int {
	max := 0
	bump := func(d int) {
		if d > max {
			max = d
		}
	}
	switch v := e.(type) {
	case nil:
	case *Path:
		if level > 0 && pathTraversesIDable(v, schema) {
			bump(level)
		}
		for _, s := range v.Steps {
			for _, p := range s.Preds {
				bump(nestingDepth(p, schema, level+1))
			}
		}
	case *Binary:
		bump(nestingDepth(v.L, schema, level))
		bump(nestingDepth(v.R, schema, level))
	case *Unary:
		bump(nestingDepth(v.X, schema, level))
	case *Call:
		for _, a := range v.Args {
			bump(nestingDepth(a, schema, level))
		}
	case *Literal, *Number:
	}
	return max
}

// pathTraversesIDable reports whether the path walks through any IDable
// element. Upward steps (parent/ancestor) always traverse IDable territory,
// because only IDable nodes can sit on fragment boundaries.
func pathTraversesIDable(p *Path, schema *Schema) bool {
	for _, s := range p.Steps {
		switch s.Axis {
		case AxisParent, AxisAncestor, AxisAncestorOrSelf:
			return true
		case AxisAttribute, AxisSelf:
			continue
		}
		if s.Test.Name == "*" || s.Test.AnyNode {
			return true // could match an IDable element
		}
		if schema.IDable[s.Test.Name] {
			return true
		}
	}
	return false
}

// EarliestNestedTag returns the tag of the earliest step in the main path
// whose predicates contain a nested location path over IDable nodes; this
// is where QEG must stop and gather the whole subtree for nesting depth
// >= 1 queries (Section 4, "Larger nesting depths"). ok is false when the
// query has nesting depth 0.
func EarliestNestedTag(p *Path, schema *Schema) (string, int, bool) {
	for i, s := range p.Steps {
		for _, pred := range s.Preds {
			if nestingDepth(pred, schema, 1) > 0 {
				return s.Test.Name, i, true
			}
		}
	}
	return "", -1, false
}

// LocalInfoRequired computes the LOCAL-INFO-REQUIRED set of Section 3.5:
// the element tags whose matching IDable nodes must contribute their entire
// local information to the answer. Because XPath returns whole subtrees
// rooted at selected nodes, this is the tag selected by the final step plus
// every tag that can occur beneath it in the schema.
func LocalInfoRequired(p *Path, schema *Schema) map[string]bool {
	out := map[string]bool{}
	if p == nil || len(p.Steps) == 0 {
		return out
	}
	last := p.Steps[len(p.Steps)-1]
	var seeds []string
	switch {
	case last.Test.Name == "*" || last.Test.AnyNode:
		// Wildcard final step: any tag may be selected.
		for tag := range schema.Children {
			seeds = append(seeds, tag)
		}
		for tag := range schema.IDable {
			seeds = append(seeds, tag)
		}
	case last.Axis == AxisAttribute || last.Test.Text:
		// Attribute or text selections need the local info of the owner
		// element, i.e. the previous step's tag.
		if len(p.Steps) >= 2 {
			seeds = append(seeds, p.Steps[len(p.Steps)-2].Test.Name)
		}
	default:
		seeds = append(seeds, last.Test.Name)
	}
	for _, tag := range seeds {
		out[tag] = true
		for d := range schema.DescendantTags(tag) {
			out[d] = true
		}
	}
	return out
}

// PredicateClass classifies one conjunct of a step predicate for the QEG
// split P = Pid && Pconsistency && Prest (Sections 3.5 and 4).
type PredicateClass int

// Predicate classes.
const (
	// PredID touches only the id attribute (and constants); it can be
	// evaluated at any node whose bare ID is known, even status=incomplete.
	PredID PredicateClass = iota
	// PredConsistency touches only the timestamp attribute and now();
	// owners ignore it, caches use it to decide re-fetching.
	PredConsistency
	// PredRest is everything else; it needs the node's local information.
	PredRest
	// PredOpaque marks a conjunct that mixes classes in a way that cannot
	// be separated (e.g. a disjunction of an id test and a price test);
	// QEG must conservatively treat the node as a possible match.
	PredOpaque
)

// SplitPredicate decomposes a predicate expression into its top-level
// conjuncts and classifies each.
func SplitPredicate(e Expr) map[PredicateClass][]Expr {
	out := map[PredicateClass][]Expr{}
	for _, c := range Conjuncts(e) {
		out[ClassifyPredicate(c)] = append(out[ClassifyPredicate(c)], c)
	}
	return out
}

// Conjuncts flattens nested 'and' operators into a list.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == TokAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// ClassifyPredicate determines the class of a single conjunct.
func ClassifyPredicate(e Expr) PredicateClass {
	refs := collectRefs(e, refSet{})
	switch {
	case refs.id && !refs.ts && !refs.other:
		return PredID
	case refs.ts && !refs.id && !refs.other:
		return PredConsistency
	case refs.other && !refs.id && !refs.ts:
		return PredRest
	case !refs.id && !refs.ts && !refs.other:
		// Constant-only predicates (rare) are evaluable anywhere; treat
		// them as id-class since they need no local information.
		return PredID
	default:
		// A single conjunct mixing classes (e.g. a disjunction of an id
		// test and a price test) cannot be separated.
		return PredOpaque
	}
}

type refSet struct {
	id    bool // references @id
	ts    bool // references @ts or now()
	other bool // references anything else in the document
}

func collectRefs(e Expr, r refSet) refSet {
	switch v := e.(type) {
	case nil:
	case *Path:
		if len(v.Steps) == 1 && v.Steps[0].Axis == AxisAttribute && len(v.Steps[0].Preds) == 0 {
			switch v.Steps[0].Test.Name {
			case xmldb.AttrID:
				r.id = true
				return r
			case xmldb.AttrTimestamp:
				r.ts = true
				return r
			}
		}
		r.other = true
	case *Binary:
		r = collectRefs(v.L, r)
		r = collectRefs(v.R, r)
	case *Unary:
		r = collectRefs(v.X, r)
	case *Call:
		if v.Name == "now" && len(v.Args) == 0 {
			r.ts = true
			return r
		}
		for _, a := range v.Args {
			r = collectRefs(a, r)
		}
	case *Literal, *Number:
	}
	return r
}

// StepIDConstraint inspects a step's predicates and, when the id-class
// conjuncts pin the node's id to a finite set of literals, returns that
// set. It returns nil when the id is unconstrained. This powers subquery
// pruning at incomplete nodes without evaluating full predicates.
func StepIDConstraint(s *LocStep) []string {
	var ids []string
	found := false
	for _, pred := range s.Preds {
		for _, c := range Conjuncts(pred) {
			if set, ok := idDisjunction(c); ok {
				if !found {
					ids = set
					found = true
				} else {
					ids = intersect(ids, set)
				}
			}
		}
	}
	if !found {
		return nil
	}
	return ids
}

// IDDisjunction reports whether e is a pure disjunction of id-equality
// tests — the predicate form StepIDConstraint captures completely, so a
// caller already filtering on the constraint set need not re-evaluate e.
func IDDisjunction(e Expr) bool {
	_, ok := idDisjunction(e)
	return ok
}

// idDisjunction matches an expression that is a disjunction of id-equality
// tests (including a single equality) and returns the id literals.
func idDisjunction(e Expr) ([]string, bool) {
	if id, ok := idEqualityLiteral(e); ok {
		return []string{id}, true
	}
	if b, ok := e.(*Binary); ok && b.Op == TokOr {
		l, okL := idDisjunction(b.L)
		r, okR := idDisjunction(b.R)
		if okL && okR {
			return append(l, r...), true
		}
	}
	return nil, false
}

// StripConsistency returns a copy of the expression with every
// consistency-class conjunct removed from step predicates. The front end
// uses it before re-evaluating a query on an assembled answer fragment:
// freshness was already enforced (or deliberately overridden by owners)
// during QEG, and must not filter the final answer again.
func StripConsistency(e Expr) Expr {
	cl := CloneExpr(e)
	stripConsistencyInPlace(cl)
	return cl
}

func stripConsistencyInPlace(e Expr) {
	switch v := e.(type) {
	case *Path:
		for _, s := range v.Steps {
			var preds []Expr
			for _, p := range s.Preds {
				kept := rebuildWithoutConsistency(p)
				if kept != nil {
					stripConsistencyInPlace(kept)
					preds = append(preds, kept)
				}
			}
			s.Preds = preds
		}
	case *Binary:
		stripConsistencyInPlace(v.L)
		stripConsistencyInPlace(v.R)
	case *Unary:
		stripConsistencyInPlace(v.X)
	case *Call:
		for _, a := range v.Args {
			stripConsistencyInPlace(a)
		}
	}
}

// rebuildWithoutConsistency drops consistency-class conjuncts from a
// predicate and re-folds the rest; nil means the predicate vanished.
func rebuildWithoutConsistency(p Expr) Expr {
	var kept []Expr
	for _, c := range Conjuncts(p) {
		if ClassifyPredicate(c) != PredConsistency {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	out := kept[0]
	for _, c := range kept[1:] {
		out = &Binary{Op: TokAnd, L: out, R: c}
	}
	return out
}

func intersect(a, b []string) []string {
	set := map[string]bool{}
	for _, x := range b {
		set[x] = true
	}
	// Non-nil so a contradictory constraint ("no id can match") stays
	// distinguishable from "unconstrained" (nil).
	out := []string{}
	for _, x := range a {
		if set[x] {
			out = append(out, x)
		}
	}
	return out
}
