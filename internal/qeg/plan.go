// Package qeg implements the paper's central contribution: the
// Query-Evaluate-Gather technique (Section 3.5). Given an XPath query and a
// site's document fragment, QEG determines (1) which local data is part of
// the query result and (2) addressed subqueries that gather the missing
// parts. The paper implements QEG by generating XSLT programs; Go has no
// XSLT processor, so this package executes the same algorithm as a compiled
// walker over the fragment, with the four-way status case analysis the
// paper's generated XSLT performs. A textual XSLT-style program is still
// generated (and re-parsed) in "naive" compilation mode to reproduce the
// plan-creation overhead studied in Figure 11.
package qeg

import (
	"fmt"
	"strings"

	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
	"irisnet/internal/xpatheval"
)

// Plan is a compiled QEG program for one location path: a template, shared
// by every query of the path's shape (xpath.Shape), bound to one query's id
// values. Binding copies nothing: the template's steps, predicates and
// index steps read their slot literals through ids wherever they need an id.
type Plan struct {
	*template
	// ids binds the template's slot literals (xpath.Literal.Slot) to the
	// query's id values; nil when the template has no slots, as for a plan
	// compiled from its text alone.
	ids []string
}

// template is the query-independent part of a plan: everything compiled
// from the path, with id slots left unbound. It is immutable once built.
type template struct {
	// Path is the parsed location path.
	Path *xpath.Path
	// Steps mirrors Path.Steps with per-step predicate analysis.
	Steps []*PlanStep
	// Schema describes the service's document hierarchy; QEG needs it to
	// know which tags are IDable and to detect nested (depth >= 1)
	// predicates.
	Schema *xpath.Schema
	// NestedIdx is the index of the earliest step whose predicates contain
	// a nested location path over IDable nodes (-1 when the query has
	// nesting depth 0). At that step QEG gathers the entire subtree before
	// evaluating (Section 4, "Larger nesting depths").
	NestedIdx int
	// Indexable marks plans the cache-conscious fragment index can answer
	// without tree walking (indexed.go): depth-0 plans whose main path is
	// built from plain child/descendant name steps with no consistency
	// predicates. Computed once at compile time, so cached plans carry
	// their indexed access path for free.
	Indexable bool
	// idxSteps is the per-step compiled form the indexed evaluator runs;
	// nil unless Indexable.
	idxSteps []idxStep
}

// idxStep is one collapsed location step of an indexable plan. A '//'
// marker step and its following child::name step compile into a single
// dos step, since descendant-or-self::node()/child::name selects exactly
// the descendants bearing the name.
type idxStep struct {
	// dos selects descendants of the context set; otherwise children.
	dos bool
	// self additionally admits the context node itself (an explicit
	// predicate-free descendant-or-self::name step).
	self bool
	// name is the element name the step tests.
	name string
	// ids is the step's finite IDConstraint, used to prune candidates
	// before predicate evaluation; nil when unconstrained.
	ids xpath.IDConstraint
	// idPreds are the Pid conjuncts: a candidate failing them is pruned
	// silently, exactly like the walker's id rejection.
	idPreds []idxPred
	// dataPreds are the Prest and opaque conjuncts, in the walker's
	// evaluation order; a candidate failing them is rejected but its local
	// information still joins the generalized answer.
	dataPreds []idxPred
	// pure marks a child step whose only predicate pins exactly one id —
	// the indexed evaluator navigates these as direct spine hops, which
	// keeps the fast path available on sites that hold only an id-complete
	// spine above their owned subtree.
	pure bool
}

type idxPred struct {
	fast *xpatheval.FastPred
	expr xpath.Expr
}

// PlanStep is one location step with its predicates split per the paper's
// P = Pid && Pconsistency && Prest decomposition.
type PlanStep struct {
	Step *xpath.LocStep
	// IDPreds are conjuncts touching only @id (evaluable at any status).
	IDPreds []xpath.Expr
	// ConsPreds are conjuncts touching only @ts/now() (query-based
	// consistency; ignored on owned nodes).
	ConsPreds []xpath.Expr
	// ConsForms and ConsSrcs run parallel to ConsPreds: the compiled
	// linear form used to measure the freshness margin when a cached node
	// passes (nil when outside the compilable subset), and the conjunct's
	// source text used to key the margin in the staleness ledger.
	ConsForms []*xpath.FreshnessForm
	ConsSrcs  []string
	// RestPreds are conjuncts needing the node's local information.
	RestPreds []xpath.Expr
	// Opaque are conjuncts mixing classes; they force conservative
	// subqueries on nodes whose local information is missing.
	Opaque []xpath.Expr
	// IDConstraint, when non-nil, is the finite set of ids the IDPreds
	// admit, used for fast pruning. Its slot literals read the plan's
	// binding.
	IDConstraint xpath.IDConstraint
	// DOS marks a descendant-or-self::node() step produced by //.
	DOS bool
}

// CompilePlan builds a Plan directly from the query text: one parse plus
// per-step predicate classification, with no template or cache. Only single
// location paths (possibly under a top-level union handled by the caller)
// are compilable.
func CompilePlan(query string, schema *xpath.Schema) (*Plan, error) {
	path, err := xpath.ParsePath(query)
	if err != nil {
		return nil, err
	}
	t, err := compileParsed(query, path, schema)
	if err != nil {
		return nil, err
	}
	return &Plan{template: t}, nil
}

func compileParsed(query string, path *xpath.Path, schema *xpath.Schema) (*template, error) {
	if !path.Absolute {
		return nil, fmt.Errorf("qeg: query %q must be absolute (user queries address the logical document root)", query)
	}
	p := &template{Path: path, Schema: schema, NestedIdx: -1}
	for _, s := range path.Steps {
		ps, err := compileStep(s, schema)
		if err != nil {
			return nil, err
		}
		p.Steps = append(p.Steps, ps)
	}
	if _, idx, ok := xpath.EarliestNestedTag(path, schema); ok {
		// Upward references inside the nested predicates widen the subtree
		// that must be gathered: for the paper's min-price query the
		// predicate sits on parkingSpace but refers to ../parkingSpace, so
		// the gather point is the block step (Section 4).
		reach := 0
		for _, pred := range path.Steps[idx].Preds {
			if r := upwardReach(pred); r > reach {
				reach = r
			}
		}
		p.NestedIdx = idx - reach
		if p.NestedIdx < 0 {
			p.NestedIdx = 0
		}
	}
	p.compileIndex()
	return p, nil
}

// compileIndex decides whether the cache-conscious fragment index can run
// this plan and, if so, compiles the collapsed step list. Anything the
// indexed evaluator cannot reproduce exactly — nested predicates,
// attribute/text/self/wildcard steps, consistency predicates — leaves the
// plan on the walker.
func (p *template) compileIndex() {
	if p.NestedIdx >= 0 || len(p.Steps) == 0 {
		return
	}
	steps := make([]idxStep, 0, len(p.Steps))
	for k := 0; k < len(p.Steps); k++ {
		ps := p.Steps[k]
		if len(ps.ConsPreds) > 0 {
			return
		}
		s := ps.Step
		var st idxStep
		switch {
		case ps.DOS && s.Axis == xpath.AxisDescendantOrSelf && s.Test.AnyNode && len(s.Preds) == 0:
			// '//' marker: collapse with the following child::name step.
			if k+1 >= len(p.Steps) {
				return
			}
			nx := p.Steps[k+1]
			if nx.DOS || nx.Step.Axis != xpath.AxisChild || !plainName(nx.Step.Test) || len(nx.ConsPreds) > 0 {
				return
			}
			st = idxStep{dos: true, name: nx.Step.Test.Name, ids: nx.IDConstraint}
			st.idPreds, st.dataPreds = compileIdxPreds(nx)
			k++
		case s.Axis == xpath.AxisDescendant && plainName(s.Test):
			st = idxStep{dos: true, name: s.Test.Name, ids: ps.IDConstraint}
			st.idPreds, st.dataPreds = compileIdxPreds(ps)
		case s.Axis == xpath.AxisDescendantOrSelf && plainName(s.Test) && len(s.Preds) == 0:
			st = idxStep{dos: true, self: true, name: s.Test.Name}
		case s.Axis == xpath.AxisChild && plainName(s.Test):
			st = idxStep{name: s.Test.Name, ids: ps.IDConstraint}
			st.idPreds, st.dataPreds = compileIdxPreds(ps)
			st.pure = len(st.ids) == 1 && len(st.ids[0]) == 1 && len(ps.IDPreds) == 1 &&
				len(ps.RestPreds) == 0 && len(ps.Opaque) == 0
		default:
			return
		}
		steps = append(steps, st)
	}
	p.idxSteps = steps
	p.Indexable = true
}

// plainName reports a node test that matches exactly one element name.
func plainName(t xpath.NodeTest) bool {
	return !t.Text && !t.AnyNode && t.Name != "" && t.Name != "*"
}

// compileIdxPreds splits a step's conjuncts into the walker's two
// rejection classes — Pid (silent prune) and Prest+opaque (rejection with
// generalization) — compiling each to its fast form where possible.
func compileIdxPreds(ps *PlanStep) (idPreds, dataPreds []idxPred) {
	for _, e := range ps.IDPreds {
		if ps.IDConstraint != nil && xpath.IDDisjunction(e) {
			// The constraint intersects every id-disjunction conjunct, so
			// the indexed evaluator's ids filter already implies this one.
			continue
		}
		idPreds = append(idPreds, idxPred{fast: xpatheval.CompileFastPred(e), expr: e})
	}
	for _, group := range [][]xpath.Expr{ps.RestPreds, ps.Opaque} {
		for _, e := range group {
			dataPreds = append(dataPreds, idxPred{fast: xpatheval.CompileFastPred(e), expr: e})
		}
	}
	return idPreds, dataPreds
}

func compileStep(s *xpath.LocStep, schema *xpath.Schema) (*PlanStep, error) {
	ps := &PlanStep{Step: s}
	switch s.Axis {
	case xpath.AxisChild, xpath.AxisAttribute:
	case xpath.AxisDescendantOrSelf, xpath.AxisDescendant:
		ps.DOS = true
	case xpath.AxisSelf:
		// self steps add predicates to the current node; treated as a
		// child-position refinement by the walker.
	default:
		return nil, fmt.Errorf("qeg: axis %v is not supported on the main path of a distributed query (use it inside predicates)", s.Axis)
	}
	for _, pred := range s.Preds {
		for _, c := range xpath.Conjuncts(pred) {
			switch xpath.ClassifyPredicate(c) {
			case xpath.PredID:
				ps.IDPreds = append(ps.IDPreds, c)
			case xpath.PredConsistency:
				ps.ConsPreds = append(ps.ConsPreds, c)
				form, ok := xpath.CompileFreshness(c)
				if !ok {
					form = nil
				}
				ps.ConsForms = append(ps.ConsForms, form)
				ps.ConsSrcs = append(ps.ConsSrcs, fmt.Sprint(c))
			case xpath.PredRest:
				ps.RestPreds = append(ps.RestPreds, c)
			default:
				ps.Opaque = append(ps.Opaque, c)
			}
		}
	}
	ps.IDConstraint = xpath.StepIDConstraint(s)
	return ps, nil
}

// CompileQuery compiles a full user query, which may be a top-level union
// of location paths, into one Plan per branch. It compiles the text as it
// stands, with no template or cache: the reference Compiler.Compile's
// shape-bound plans are held to.
func CompileQuery(query string, schema *xpath.Schema) ([]*Plan, error) {
	expr, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	return compileBranches(query, expr, schema)
}

// compileBranches compiles each union branch of a parsed query into a plan
// with no binding.
func compileBranches(query string, expr xpath.Expr, schema *xpath.Schema) ([]*Plan, error) {
	paths, err := unionBranches(expr)
	if err != nil {
		return nil, fmt.Errorf("qeg: %q: %w", query, err)
	}
	plans := make([]*Plan, 0, len(paths))
	for _, p := range paths {
		t, err := compileParsed(query, p, schema)
		if err != nil {
			return nil, err
		}
		plans = append(plans, &Plan{template: t})
	}
	return plans, nil
}

// bind returns the plans of a compiled shape bound to one query's slot
// values: a handle per branch, sharing the templates and the values.
func bind(plans []*Plan, ids []string) []*Plan {
	if ids == nil {
		return plans
	}
	hs := make([]Plan, len(plans))
	out := make([]*Plan, len(plans))
	for i, p := range plans {
		hs[i] = Plan{template: p.template, ids: ids}
		out[i] = &hs[i]
	}
	return out
}

// exprText is e's text with its slot literals bound to slots.
func exprText(e xpath.Expr, slots []string) string {
	var sb strings.Builder
	xpath.WriteExpr(&sb, e, slots)
	return sb.String()
}

func unionBranches(e xpath.Expr) ([]*xpath.Path, error) {
	switch v := e.(type) {
	case *xpath.Path:
		return []*xpath.Path{v}, nil
	case *xpath.Binary:
		if v.Op == xpath.TokPipe {
			l, err := unionBranches(v.L)
			if err != nil {
				return nil, err
			}
			r, err := unionBranches(v.R)
			if err != nil {
				return nil, err
			}
			return append(l, r...), nil
		}
	}
	return nil, fmt.Errorf("top-level query must be a location path or union of location paths")
}

// Subquery is an addressed request for missing data: the ID path of the
// IDable node whose owner must be contacted, and the XPath query to
// evaluate there. Target is derivable from the site's own fragment
// (invariant I2 guarantees the full root-to-node ID path is stored), which
// is what makes subqueries self-routing (Section 3.4).
type Subquery struct {
	Target xmldb.IDPath
	Query  string
}

// Key returns a dedup key.
func (s Subquery) Key() string { return s.Target.Key() + "\x00" + s.Query }

// pinnedQuery builds the query for a subquery targeting the node at path
// whose remaining steps start at index i of the plan. Ancestor steps are
// replaced by bare id-equality steps (the gathering site has already
// verified, or will re-verify, their other predicates), and the target's
// own step keeps its non-id predicates with the id pinned, so the remote
// site prunes every sibling branch.
//
// pin=true pins the last path step to the target's id in addition to the
// original predicates; it is used when the target node itself still has
// unverified predicates. i == len(plan.Steps) requests the node's entire
// subtree (ID-path query).
func (p *Plan) pinnedQuery(target xmldb.IDPath, i int, pin bool) string {
	var sb strings.Builder
	// All but the last target step are pure id hops.
	for _, st := range target[:len(target)-1] {
		sb.WriteByte('/')
		sb.WriteString(st.Name)
		if st.ID != "" {
			fmt.Fprintf(&sb, "[@id='%s']", escapeLiteral(st.ID))
		}
	}
	last := target[len(target)-1]
	sb.WriteByte('/')
	sb.WriteString(last.Name)
	if last.ID != "" {
		fmt.Fprintf(&sb, "[@id='%s']", escapeLiteral(last.ID))
	}
	if pin && i-1 >= 0 && i-1 < len(p.Steps) {
		// Re-attach the target step's own non-id predicates.
		for _, pred := range p.Steps[i-1].Step.Preds {
			keep := true
			for _, c := range xpath.Conjuncts(pred) {
				if xpath.ClassifyPredicate(c) == xpath.PredID {
					keep = false // already pinned by id
				}
			}
			if keep {
				sb.WriteByte('[')
				xpath.WriteExpr(&sb, pred, p.ids)
				sb.WriteByte(']')
			}
		}
	}
	// Remaining steps verbatim.
	for j := i; j < len(p.Steps); j++ {
		s := p.Steps[j].Step
		if p.Steps[j].DOS && s.Test.AnyNode && len(s.Preds) == 0 {
			sb.WriteByte('/') // will combine with next '/' into '//'
			continue
		}
		sb.WriteByte('/')
		xpath.WriteStep(&sb, s, p.ids)
	}
	return sb.String()
}

func escapeLiteral(s string) string { return strings.ReplaceAll(s, "'", "") }

// upwardReach returns how many levels above the predicate's anchor node the
// expression can reach: the maximum number of leading parent steps among
// its location paths. An ancestor axis anywhere makes the reach effectively
// unbounded (the gather point is clamped to the root by the caller).
func upwardReach(e xpath.Expr) int {
	const unbounded = 1 << 20
	switch v := e.(type) {
	case nil:
		return 0
	case *xpath.Path:
		reach := 0
		for _, s := range v.Steps {
			switch s.Axis {
			case xpath.AxisParent:
				reach++
				continue
			case xpath.AxisAncestor, xpath.AxisAncestorOrSelf:
				return unbounded
			case xpath.AxisSelf:
				continue
			}
			break // downward movement ends the upward prefix
		}
		for _, s := range v.Steps {
			for _, p := range s.Preds {
				if r := upwardReach(p); r > reach {
					reach = r
				}
			}
		}
		return reach
	case *xpath.Binary:
		return maxInt(upwardReach(v.L), upwardReach(v.R))
	case *xpath.Unary:
		return upwardReach(v.X)
	case *xpath.Call:
		reach := 0
		for _, a := range v.Args {
			if r := upwardReach(a); r > reach {
				reach = r
			}
		}
		return reach
	default:
		return 0
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SubtreeQuery returns the query fetching the full subtree of the node at
// the given ID path.
func SubtreeQuery(p xmldb.IDPath) string {
	var sb strings.Builder
	for _, st := range p {
		sb.WriteByte('/')
		sb.WriteString(st.Name)
		if st.ID != "" {
			fmt.Fprintf(&sb, "[@id='%s']", escapeLiteral(st.ID))
		}
	}
	return sb.String()
}
