package qeg

import (
	"fmt"
	"slices"
	"sync"

	"irisnet/internal/fragment"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpatheval"
)

// Indexed evaluation: run an Indexable plan against a sealed snapshot's
// cache-conscious index (fragment.Index) instead of walking the tree.
//
// The selection core turns each step into array work — child steps are
// binary searches of the per-tag position list inside the parent's subtree
// interval, descendant steps are one contiguous range per context node —
// and evaluates predicates through their compiled fast forms. It runs with
// pooled scratch and performs no allocations on the steady-state path.
//
// The fast path only runs when it can reproduce the walker byte for byte
// with zero subqueries:
//
//   - every pure-id prefix hop lands under a parent whose child list is
//     authoritative (full local information, or local ID information when
//     the schema says the tested name is IDable), and
//   - the node the remaining steps evaluate under has its whole subtree
//     locally (Index.SubtreeLocal), so no candidate can need a remote
//     owner.
//
// Everything else returns ok=false and the caller falls back to the
// walker, which is always correct. Under those preconditions the walker's
// answer has a closed form over the index: a classification of skeleton
// positions into "contributes local information" (visited, selected, or
// rejected-with-generalization nodes) and "contributes local ID
// information" (id-complete spine ancestors), emitted in document order.
// indexSelect computes the classification as a side effect of selection;
// emitAnswer renders it into the same fragment the walker's answer store
// would hold.

// Position classes in the generalized answer, by increasing richness: an
// id-complete spine ancestor ships its local ID information; a visited,
// rejected-with-generalization, or selected node ships its full local
// information (a selected node additionally pulls in its whole skeleton
// subtree, each node at clLoc).
const (
	clAnc uint8 = iota + 1
	clLoc
)

type idxScratch struct {
	cur, next []int32
	// marks is the per-position class slab evaluateIndexed reuses across
	// queries; sized to the largest index seen and cleared per use.
	marks []uint8
}

var idxScratchPool = sync.Pool{New: func() any { return new(idxScratch) }}

// evaluateIndexed runs the full indexed fast path: selection plus
// generalized-answer construction. ok=false defers to the walker.
func evaluateIndexed(store *fragment.Store, ix *fragment.Index, plan *Plan, opts Options) (*Result, bool, error) {
	sc := idxScratchPool.Get().(*idxScratch)
	defer idxScratchPool.Put(sc)
	if int32(cap(sc.marks)) < ix.Len() {
		sc.marks = make([]uint8, ix.Len())
	}
	marks := sc.marks[:ix.Len()]
	clear(marks)
	_, ok, err := indexSelect(store, ix, plan, opts.Now, sc, marks)
	if err != nil || !ok {
		return nil, ok, err
	}
	frag, nodes := emitAnswer(store, ix, marks, opts.Prov)
	return &Result{Fragment: frag, Nodes: nodes}, true, nil
}

// IndexedMatchCount runs only the indexed selection core and returns the
// number of selected nodes. It exists so benchmarks and metrics can
// measure the hot path without paying for answer construction; ok=false
// means the plan or store cannot take the fast path.
func IndexedMatchCount(store *fragment.Store, plan *Plan, opts Options) (int, bool, error) {
	if !plan.Indexable || opts.IgnoreCached {
		return 0, false, nil
	}
	ix := store.Index()
	if ix == nil {
		return 0, false, nil
	}
	sc := idxScratchPool.Get().(*idxScratch)
	defer idxScratchPool.Put(sc)
	return indexSelect(store, ix, plan, opts.Now, sc, nil)
}

// indexSelect runs the pure-id prefix navigation and the per-step
// selection loop, returning the number of selected nodes. When marks is
// non-nil it additionally records each position's answer class, mirroring
// the walker's install calls. ok=false means the fast path cannot answer
// on this store and the walker must run instead; marks are then garbage.
func indexSelect(store *fragment.Store, ix *fragment.Index, plan *Plan, now func() float64, sc *idxScratch, marks []uint8) (selected int, ok bool, err error) {
	steps := plan.idxSteps
	slots := plan.ids
	mark := func(p int32, c uint8) {
		if marks != nil && marks[p] < c {
			marks[p] = c
		}
	}
	// markVisited mirrors visit()'s contribution of an accepted node.
	markVisited := func(p int32) {
		if fragment.StatusOf(ix.Node(p)).HasLocalInfo() {
			mark(p, clLoc)
		} else {
			mark(p, clAnc)
		}
	}

	// Pure-id prefix: direct spine hops. Pid rejections (wrong name or id)
	// are silent at every status, so they terminate with whatever spine was
	// accepted so far — exactly the walker's prune.
	pos := int32(0)
	k := 0
	if !steps[0].dos {
		if ix.Node(0).Name != steps[0].name {
			return 0, true, nil
		}
		if steps[0].pure {
			if ix.Node(0).ID() != steps[0].ids[0][0].Bound(slots) {
				return 0, true, nil
			}
			markVisited(0)
			k = 1
			for k < len(steps) && steps[k].pure {
				pst := fragment.StatusOf(ix.Node(pos))
				if !pst.HasLocalInfo() {
					// id-complete: IDable children are enumerable, but only
					// the schema can vouch the tested name is IDable.
					if !pst.HasLocalIDInfo() || plan.Schema == nil || !plan.Schema.IDable[steps[k].name] {
						return 0, false, nil
					}
				}
				child := findChildPos(ix, pos, steps[k].name, steps[k].ids[0][0].Bound(slots))
				if child < 0 {
					// Authoritative absence: the answer is the spine alone.
					return 0, true, nil
				}
				markVisited(child)
				pos = child
				k++
			}
		}
	}

	// Everything at or below the last spine node must be locally evaluable.
	if !ix.SubtreeLocal(pos) {
		return 0, false, nil
	}
	if k == len(steps) {
		// The spine endpoint itself is selected: includeSubtree.
		if marks != nil {
			markSubtree(ix, pos, marks)
		}
		return 1, true, nil
	}
	if k > 0 || steps[0].dos {
		// The walk visits the context node before descending (the root with
		// a leading //, or the last spine hop); SubtreeLocal guarantees it
		// has full local information.
		mark(pos, clLoc)
	}

	// Tail: generate candidates per step, filter by ids and predicates.
	var ctx *xpatheval.Context
	cur := append(sc.cur[:0], pos)
	next := sc.next[:0]
	for j := k; j < len(steps); j++ {
		st := &steps[j]
		last := j == len(steps)-1
		next = next[:0]
		tag, hasTag := ix.Tag(st.name)

		switch {
		case j == 0 && !st.dos:
			// An absolute path's first step tests the root itself.
			if hasTag && ix.TagOf(0) == tag {
				next = append(next, 0)
			}
		case st.dos:
			// The descendant position propagates through every skeleton node
			// below the context, and each propagation is a visit: the whole
			// skeleton subtree joins the answer as local information.
			slices.Sort(cur)
			covered := int32(-1)
			for _, p := range cur {
				if p < covered {
					continue // nested context: range already covered
				}
				covered = ix.End(p)
				if marks != nil {
					for q := p + 1; q < covered; q++ {
						if ix.Skel(q) {
							mark(q, clLoc)
						}
					}
				}
				if hasTag {
					lo := p + 1
					if st.self {
						lo = p
					}
					for _, q := range ix.Range(tag, lo, covered) {
						if ix.Skel(q) {
							next = append(next, q)
						}
					}
				}
			}
		default:
			if hasTag {
				for _, p := range cur {
					for _, q := range ix.Range(tag, p+1, ix.End(p)) {
						if ix.Parent(q) == p && ix.IDable(q) {
							next = append(next, q)
						}
					}
				}
			}
		}

		// Filter candidates in place, with the walker's rejection classes.
		surv := next[:0]
		for _, q := range next {
			n := ix.Node(q)
			if !st.ids.Admits(n.ID(), slots) {
				continue
			}
			pass, perr := evalIdxPreds(st.idPreds, n, store, now, slots, &ctx)
			if perr != nil {
				return 0, false, perr
			}
			if !pass {
				continue // Pid rejection: silent
			}
			pass, perr = evalIdxPreds(st.dataPreds, n, store, now, slots, &ctx)
			if perr != nil {
				return 0, false, perr
			}
			if !pass {
				mark(q, clLoc) // rejection with generalization
				continue
			}
			if last {
				selected++
				if marks != nil {
					markSubtree(ix, q, marks)
				}
			} else {
				mark(q, clLoc)
				surv = append(surv, q)
			}
		}
		cur, next = surv, cur
	}
	sc.cur, sc.next = cur, next
	return selected, true, nil
}

// markSubtree marks every skeleton node in q's subtree (q included) as
// contributing full local information — the walker's includeSubtree.
func markSubtree(ix *fragment.Index, q int32, marks []uint8) {
	for p := q; p < ix.End(q); p++ {
		if ix.Skel(p) && marks[p] < clLoc {
			marks[p] = clLoc
		}
	}
}

// evalIdxPreds evaluates a conjunct list against a candidate, preferring
// the allocation-free fast forms and falling back to the full evaluator
// (lazily building its context) when a conjunct is outside them. slots is
// the plan's binding.
func evalIdxPreds(preds []idxPred, n *xmldb.Node, store *fragment.Store, now func() float64, slots []string, ctx **xpatheval.Context) (bool, error) {
	for i := range preds {
		pr := &preds[i]
		if pr.fast != nil {
			if r, ok := pr.fast.Eval(n, slots); ok {
				if !r {
					return false, nil
				}
				continue
			}
		}
		if *ctx == nil {
			*ctx = &xpatheval.Context{Root: store.Root, Now: now, Slots: slots}
		}
		r, err := xpatheval.EvalBool(pr.expr, *ctx, n)
		if err != nil {
			return false, fmt.Errorf("qeg: predicate %s: %w", exprText(pr.expr, slots), err)
		}
		if !r {
			return false, nil
		}
	}
	return true, nil
}

// findChildPos locates the IDable child of pos with the given name and
// id, or -1.
func findChildPos(ix *fragment.Index, pos int32, name, id string) int32 {
	tag, ok := ix.Tag(name)
	if !ok {
		return -1
	}
	for _, q := range ix.Range(tag, pos+1, ix.End(pos)) {
		if ix.Parent(q) == pos && ix.Node(q).ID() == id {
			return q
		}
	}
	return -1
}

// emitAnswer renders the marked positions into the answer fragment the
// walker's answer store would hold, in document order, returning the
// fragment and its element count.
func emitAnswer(store *fragment.Store, ix *fragment.Index, marks []uint8, prov *Provenance) (*xmldb.Node, int) {
	if marks[0] == 0 {
		// Nothing contributed: the walker's answer store stays a bare
		// incomplete document root.
		root := xmldb.NewElem(store.Root.Name, store.Root.ID())
		fragment.SetStatus(root, fragment.StatusIncomplete)
		return root, 1
	}
	nodes := 0
	return emitNode(ix, 0, marks, &nodes, prov), nodes
}

// Status attribute values, interned once so emission builds each node's
// attribute slice in a single exact-capacity allocation.
var (
	statusIncompleteVal = fragment.StatusIncomplete.String()
	statusIDCompleteVal = fragment.StatusIDComplete.String()
	statusCompleteVal   = fragment.StatusComplete.String()
)

// emitNode renders one marked position. clAnc mirrors InstallLocalIDInfo:
// the node's id plus incomplete stubs for its IDable children. clLoc
// mirrors InstallLocalInfo with StatusComplete: the node's attributes and
// text, full copies of non-IDable children with internal attributes
// stripped, and stubs for IDable children. In both classes a marked child
// is rendered recursively in place of its stub, keeping document order —
// the same shape the walker's install sequence converges to (attributes in
// source order minus status, then status appended last).
func emitNode(ix *fragment.Index, p int32, marks []uint8, nodes *int, prov *Provenance) *xmldb.Node {
	n := ix.Node(p)
	*nodes++
	anc := marks[p] == clAnc
	var out *xmldb.Node
	if anc {
		out = &xmldb.Node{Name: n.Name, Attrs: make([]xmldb.Attr, 0, 2)}
		if id := n.ID(); id != "" {
			out.Attrs = append(out.Attrs, xmldb.Attr{Name: xmldb.AttrID, Value: id})
		}
		out.Attrs = append(out.Attrs, xmldb.Attr{Name: xmldb.AttrStatus, Value: statusIDCompleteVal})
	} else {
		// A clLoc position mirrors the walker's installLocalInfo: the one
		// place a local-information unit joins the answer on this path.
		if prov != nil {
			prov.noteUnit(n, fragment.StatusOf(n))
		}
		out = &xmldb.Node{Name: n.Name, Text: n.Text, Attrs: make([]xmldb.Attr, 0, len(n.Attrs)+1)}
		for _, a := range n.Attrs {
			if a.Name != xmldb.AttrStatus {
				out.Attrs = append(out.Attrs, a)
			}
		}
		out.Attrs = append(out.Attrs, xmldb.Attr{Name: xmldb.AttrStatus, Value: statusCompleteVal})
	}
	if len(n.Children) > 0 {
		out.Children = make([]*xmldb.Node, 0, len(n.Children))
	}
	q := p + 1
	for _, c := range n.Children {
		cq := q
		q = ix.End(q)
		if c.ID() == "" {
			if anc {
				continue // local ID information carries IDable stubs only
			}
			cl := fragment.StripInternal(c)
			cl.Parent = out
			out.Children = append(out.Children, cl)
			*nodes += cl.CountNodes()
			continue
		}
		if marks[cq] != 0 {
			ch := emitNode(ix, cq, marks, nodes, prov)
			ch.Parent = out
			out.Children = append(out.Children, ch)
			continue
		}
		stub := &xmldb.Node{Name: c.Name, Parent: out, Attrs: []xmldb.Attr{
			{Name: xmldb.AttrID, Value: c.ID()},
			{Name: xmldb.AttrStatus, Value: statusIncompleteVal},
		}}
		out.Children = append(out.Children, stub)
		*nodes++
	}
	return out
}
