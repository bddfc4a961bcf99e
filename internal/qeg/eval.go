package qeg

import (
	"fmt"
	"sort"

	"irisnet/internal/fragment"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
	"irisnet/internal/xpatheval"
)

// Options configures one QEG evaluation.
type Options struct {
	// Now is the site clock in seconds, used by consistency predicates.
	Now func() float64
	// IgnoreCached makes the walker treat cached (status=complete) data as
	// if only its local ID information were stored, forcing subqueries to
	// the owners. Owned data is unaffected. This implements the cache
	// bypass Section 5.5 calls for under heavy load imbalance, and the
	// "caching with no hits" condition of Figure 10.
	IgnoreCached bool
	// Prov, when non-nil, receives the staleness ledger of the evaluation:
	// per-unit cache/owned provenance, cached ages, and consistency-
	// predicate margins. Both evaluation paths feed it.
	Prov *Provenance
}

// Result is the outcome of evaluating a plan against a site fragment: the
// part of the (generalized) answer present locally, as a C1/C2 fragment
// with status tags, plus the addressed subqueries for the missing parts.
type Result struct {
	Fragment   *xmldb.Node
	Subqueries []Subquery
	// Nodes is the element-node count of Fragment, taken from the answer
	// store's incrementally-maintained size so per-node cost accounting
	// does not re-walk the result.
	Nodes int
}

// Evaluate runs the QEG program against the site store. It never mutates
// the store. The returned fragment is rooted at the document root and
// mergeable into any other store (conditions C1/C2 hold by construction).
func Evaluate(store *fragment.Store, plan *Plan, opts Options) (*Result, error) {
	// Indexed fast path: sealed snapshots with an index answer indexable
	// plans by array intersection and range scans. Any condition the index
	// cannot prove locally (ok=false) falls through to the walker, which is
	// always correct. Cache bypass changes effective statuses, which the
	// index does not model, so it also disables the fast path.
	if plan.Indexable && !opts.IgnoreCached {
		if ix := store.Index(); ix != nil {
			res, ok, err := evaluateIndexed(store, ix, plan, opts)
			if err != nil {
				return nil, err
			}
			if ok {
				return res, nil
			}
		}
	}
	return evaluateWalker(store, plan, opts)
}

// evaluateWalker is the tree-walking evaluator: the engine for everything
// the index declines (non-indexable plans, unsealed stores, cache bypass)
// and the reference the differential tests hold the indexed path to.
func evaluateWalker(store *fragment.Store, plan *Plan, opts Options) (*Result, error) {
	w := &walker{
		store: store,
		plan:  plan,
		opts:  opts,
		ans:   fragment.NewStore(store.Root.Name, store.Root.ID()),
		subs:  map[string]Subquery{},
		ctx:   &xpatheval.Context{Root: store.Root, Now: opts.Now},
	}
	root := store.Root
	rootPath := xmldb.IDPath{{Name: root.Name, ID: root.ID()}}
	if len(plan.Steps) == 0 {
		w.includeSubtree(root, rootPath)
	} else {
		first := plan.Steps[0]
		if first.DOS {
			// Leading //: the root arrives with the DOS position active.
			if err := w.visit(root, rootPath, []int{0}); err != nil {
				return nil, err
			}
		} else {
			// An absolute path's first step selects the root element itself.
			accepted, err := w.tryMatch(root, rootPath, 0)
			if err != nil {
				return nil, err
			}
			if accepted {
				if err := w.visit(root, rootPath, []int{1}); err != nil {
					return nil, err
				}
			}
		}
	}
	out := &Result{Fragment: w.ans.Root, Nodes: w.ans.Size()}
	keys := make([]string, 0, len(w.subs))
	for k := range w.subs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out.Subqueries = append(out.Subqueries, w.subs[k])
	}
	return out, nil
}

type walker struct {
	store *fragment.Store
	plan  *Plan
	opts  Options
	ans   *fragment.Store
	subs  map[string]Subquery
	ctx   *xpatheval.Context
}

// statusOf reads a node's effective status under the walker's options.
// Bypassed cache entries read as incomplete (not id-complete) so that one
// subquery covers the whole node rather than one per cached descendant.
func (w *walker) statusOf(n *xmldb.Node) fragment.Status {
	st := fragment.StatusOf(n)
	if w.opts.IgnoreCached && st == fragment.StatusComplete {
		return fragment.StatusIncomplete
	}
	return st
}

func (w *walker) addSub(target xmldb.IDPath, query string) {
	sq := Subquery{Target: target.Clone(), Query: query}
	w.subs[sq.Key()] = sq
}

// tryMatch decides whether candidate node c matches step i, using the
// paper's four-way status case analysis. It returns true when the node is
// accepted and the walk should continue below it; on false the node is
// either pruned (id predicates failed) or a subquery has been emitted.
func (w *walker) tryMatch(c *xmldb.Node, p xmldb.IDPath, i int) (bool, error) {
	ps := w.plan.Steps[i]
	st := w.statusOf(c)

	// Pid: evaluable at every status, since the bare ID is always stored.
	if ps.IDConstraint != nil && !containsString(ps.IDConstraint, c.ID()) {
		return false, nil
	}
	ok, err := w.evalPreds(ps.IDPreds, c)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil // noted: no subquery needed (Section 3.5, case 1)
	}

	// Nested (depth >= 1) predicates: gather the whole subtree first.
	if i == w.plan.NestedIdx {
		return w.tryMatchNested(c, p, i)
	}

	if !st.HasLocalInfo() {
		// status = incomplete or id-complete: Prest/Popaque cannot be
		// evaluated here; if any are present, ask the owner, pinning the
		// node's id so sibling branches are pruned remotely.
		if len(ps.RestPreds) > 0 || len(ps.Opaque) > 0 || len(ps.ConsPreds) > 0 {
			w.addSub(p, w.plan.pinnedQuery(p, i+1, true))
			return false, nil
		}
		// P = Pid: recursion is possible if the site has the node's local
		// ID information; visit() handles the incomplete case by emitting
		// positional subqueries.
		return true, nil
	}

	// status = owned or complete: full local information available.
	ok, err = w.evalPreds(ps.RestPreds, c)
	if err != nil {
		return false, err
	}
	if !ok {
		return w.rejectWithGeneralization(c, p)
	}
	ok, err = w.evalPreds(ps.Opaque, c)
	if err != nil {
		return false, err
	}
	if !ok {
		return w.rejectWithGeneralization(c, p)
	}
	if len(ps.ConsPreds) > 0 && st != fragment.StatusOwned {
		// Query-based consistency: cached copies must satisfy the
		// freshness predicate; otherwise re-fetch from the owner, who
		// ignores consistency predicates (Section 4).
		ok, err = w.evalPreds(ps.ConsPreds, c)
		if err != nil {
			return false, err
		}
		if !ok {
			w.addSub(p, w.plan.pinnedQuery(p, i+1, true))
			return false, nil
		}
		w.noteConsMargins(ps, c)
	}
	return true, nil
}

// noteConsMargins records, in the evaluation's ledger, the slack by which
// a cached node satisfied each consistency predicate of the step.
func (w *walker) noteConsMargins(ps *PlanStep, c *xmldb.Node) {
	prov := w.opts.Prov
	if prov == nil {
		return
	}
	ts, hasTS := fragment.Timestamp(c)
	for i := range ps.ConsPreds {
		if form := ps.ConsForms[i]; form != nil && hasTS {
			prov.noteMargin(ps.ConsSrcs[i], form.Margin(ts, prov.now), true)
		} else {
			prov.noteMargin(ps.ConsSrcs[i], 0, false)
		}
	}
}

// rejectWithGeneralization handles a candidate whose data predicates failed
// on full local information. The node is pruned from the walk, but its
// local information still joins the answer: subqueries and answers are
// generalized to the smallest C1/C2 superset (Section 3.3), so sites that
// cache this answer can later evaluate queries with different predicates
// over the same siblings, and the final extraction re-checks predicates on
// real data rather than on bare stubs.
func (w *walker) rejectWithGeneralization(c *xmldb.Node, p xmldb.IDPath) (bool, error) {
	if err := w.installLocalInfo(c, p); err != nil {
		return false, err
	}
	return false, nil
}

// tryMatchNested handles a candidate at the earliest nested-predicate step:
// if the node's entire subtree is stored locally, all predicates (however
// deep) are evaluable in place; otherwise the whole subtree is fetched
// (Section 4's gathering strategy).
func (w *walker) tryMatchNested(c *xmldb.Node, p xmldb.IDPath, i int) (bool, error) {
	if !w.subtreeFullyLocal(c) {
		w.addSub(p, SubtreeQuery(p))
		return false, nil
	}
	ps := w.plan.Steps[i]
	for _, preds := range [][]xpath.Expr{ps.RestPreds, ps.Opaque} {
		ok, err := w.evalPreds(preds, c)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	if len(ps.ConsPreds) > 0 && w.statusOf(c) != fragment.StatusOwned {
		ok, err := w.evalPreds(ps.ConsPreds, c)
		if err != nil {
			return false, err
		}
		if !ok {
			w.addSub(p, SubtreeQuery(p))
			return false, nil
		}
		w.noteConsMargins(ps, c)
	}
	return true, nil
}

func (w *walker) evalPreds(preds []xpath.Expr, c *xmldb.Node) (bool, error) {
	for _, e := range preds {
		ok, err := xpatheval.EvalBool(e, w.ctx, c)
		if err != nil {
			return false, fmt.Errorf("qeg: predicate %s: %w", e, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// visit processes an accepted node: n matched everything before each of the
// given step positions. It emits n's contribution to the answer and either
// recurses into children or emits subqueries for what is missing.
func (w *walker) visit(n *xmldb.Node, p xmldb.IDPath, positions []int) error {
	st := w.statusOf(n)
	active := w.expandPositions(n, positions)

	// Selected: some position consumed the whole path; the answer includes
	// n's entire subtree (XPath returns subtrees rooted at selected nodes).
	for _, i := range active {
		if i == len(w.plan.Steps) {
			w.includeSubtree(n, p)
			return nil
		}
	}

	// Contribute n itself to the (generalized) answer: its full local
	// information when stored — subsequent re-evaluation of the original
	// query needs it to re-check Prest — otherwise its local ID information.
	switch {
	case st.HasLocalInfo():
		if err := w.installLocalInfo(n, p); err != nil {
			return err
		}
	case st == fragment.StatusIDComplete:
		if err := w.ans.InstallLocalIDInfo(p, fragment.LocalIDInfo(n)); err != nil {
			return err
		}
	default:
		// Incomplete: everything below must come from the owner.
		for _, i := range active {
			w.addSub(p, w.plan.pinnedQuery(p, i, false))
		}
		return nil
	}

	// Trailing attribute/text steps need the owner element's local info.
	if !st.HasLocalInfo() {
		for _, i := range active {
			s := w.plan.Steps[i]
			if s.Step.Axis == xpath.AxisAttribute || s.Step.Test.Text {
				w.addSub(p, w.plan.pinnedQuery(p, i, false))
			}
		}
	}

	// Child-step processing per active position.
	for _, i := range active {
		ps := w.plan.Steps[i]
		switch {
		case ps.DOS:
			// The descendant position propagates to children below; if the
			// site lacks n's local information it cannot enumerate the
			// non-IDable part of the subtree, so it must ask the owner.
			if !st.HasLocalInfo() {
				w.addSub(p, w.plan.pinnedQuery(p, i, false))
			}
		case ps.Step.Axis == xpath.AxisChild:
			if err := w.processChildStep(n, p, i, st); err != nil {
				return err
			}
		case ps.Step.Axis == xpath.AxisAttribute, ps.Step.Test.Text:
			// Handled above (data lives in n's local information).
		case ps.Step.Axis == xpath.AxisSelf:
			// Consumed by expandPositions.
		}
	}

	// Recurse into IDable children with their per-child position sets.
	return w.recurseChildren(n, p, active, st)
}

// expandPositions computes the closure of active positions at node n:
// descendant-or-self steps match n itself, and self steps with matching
// tests consume in place.
func (w *walker) expandPositions(n *xmldb.Node, positions []int) []int {
	set := map[int]bool{}
	var add func(i int)
	add = func(i int) {
		if set[i] {
			return
		}
		set[i] = true
		if i >= len(w.plan.Steps) {
			return
		}
		ps := w.plan.Steps[i]
		switch {
		case ps.Step.Axis == xpath.AxisDescendantOrSelf:
			if stepTestMatches(ps.Step.Test, n) && len(ps.Step.Preds) == 0 {
				add(i + 1)
			}
		case ps.Step.Axis == xpath.AxisSelf:
			if stepTestMatches(ps.Step.Test, n) && len(ps.Step.Preds) == 0 {
				add(i + 1)
			}
		}
	}
	for _, i := range positions {
		add(i)
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// processChildStep emits subqueries for child positions the site cannot
// resolve (unknown non-IDable children at id-complete nodes).
func (w *walker) processChildStep(n *xmldb.Node, p xmldb.IDPath, i int, st fragment.Status) error {
	if st.HasLocalInfo() {
		return nil // children fully enumerable; recursion handles them
	}
	// id-complete: the IDable children are all known (their IDs are in the
	// local ID information), but non-IDable children are not. If the test
	// could match a non-IDable child, only the owner can answer.
	test := w.plan.Steps[i].Step.Test
	couldBeNonIDable := test.AnyNode || test.Text || test.Name == "*" ||
		(w.plan.Schema != nil && !w.plan.Schema.IDable[test.Name])
	if couldBeNonIDable {
		w.addSub(p, w.plan.pinnedQuery(p, i, false))
	}
	return nil
}

// recurseChildren matches each IDable child against each active child-axis
// position and descends with the union of accepted next-positions.
func (w *walker) recurseChildren(n *xmldb.Node, p xmldb.IDPath, active []int, st fragment.Status) error {
	for _, c := range n.Children {
		if c.ID() == "" {
			continue // non-IDable: inside n's local info, already shipped
		}
		cp := p.Child(c.Name, c.ID())
		var next []int
		for _, i := range active {
			ps := w.plan.Steps[i]
			switch {
			case ps.DOS:
				if st.HasLocalInfo() || st == fragment.StatusIDComplete {
					next = append(next, i) // descendant search continues below
				}
				// An explicit descendant::name (or a self-matching //) step
				// can also consume at this child.
				if stepTestMatches(ps.Step.Test, c) {
					accepted, err := w.tryMatch(c, cp, i)
					if err != nil {
						return err
					}
					if accepted {
						next = append(next, i+1)
					}
				}
			case ps.Step.Axis == xpath.AxisChild && stepTestMatches(ps.Step.Test, c):
				accepted, err := w.tryMatch(c, cp, i)
				if err != nil {
					return err
				}
				if accepted {
					next = append(next, i+1)
				}
			}
		}
		if len(next) > 0 {
			if err := w.visit(c, cp, next); err != nil {
				return err
			}
		}
	}
	return nil
}

// installLocalInfo adds n's local information to the answer store, tagged
// complete (ownership does not travel with answers).
func (w *walker) installLocalInfo(n *xmldb.Node, p xmldb.IDPath) error {
	if w.opts.Prov != nil {
		w.opts.Prov.noteUnit(n, w.statusOf(n))
	}
	return w.ans.InstallLocalInfo(p, n, fragment.StatusComplete)
}

// includeSubtree adds the entire subtree under a selected node to the
// answer, emitting a single subtree-fetch subquery at the highest point
// where local data runs out.
func (w *walker) includeSubtree(n *xmldb.Node, p xmldb.IDPath) {
	if !w.statusOf(n).HasLocalInfo() {
		w.addSub(p, SubtreeQuery(p))
		return
	}
	if err := w.installLocalInfo(n, p); err != nil {
		// Installation into the answer store cannot fail for fragments we
		// construct ourselves; treat failure as a bug.
		panic(fmt.Sprintf("qeg: includeSubtree install: %v", err))
	}
	for _, c := range n.Children {
		if c.ID() == "" {
			continue
		}
		w.includeSubtree(c, p.Child(c.Name, c.ID()))
	}
}

// subtreeFullyLocal reports whether every IDable node in the subtree under
// n carries full local information in this store (under the walker's
// effective-status rules).
func (w *walker) subtreeFullyLocal(n *xmldb.Node) bool {
	ok := true
	n.Walk(func(x *xmldb.Node) bool {
		if !ok {
			return false
		}
		if x.ID() == "" && x != n {
			return false // non-IDable subtree: part of parent's local info
		}
		if !w.statusOf(x).HasLocalInfo() {
			ok = false
			return false
		}
		return true
	})
	return ok
}

func stepTestMatches(t xpath.NodeTest, n *xmldb.Node) bool {
	switch {
	case t.AnyNode:
		return true
	case t.Text:
		return false
	case t.Name == "*":
		return true
	default:
		return n.Name == t.Name
	}
}

func containsString(set []string, s string) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}
