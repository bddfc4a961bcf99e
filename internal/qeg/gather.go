package qeg

import (
	"context"
	"fmt"

	"irisnet/internal/fragment"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
	"irisnet/internal/xpatheval"
)

// Env is the seam between the gather loop and the site running it.
type Env interface {
	// Evaluate is Evaluate plus whatever cost accounting the site keeps.
	// The result's Fragment must be built fresh for this call: Gather may
	// adopt it as the answer.
	Evaluate(store *fragment.Store, plan *Plan, opts Options) (*Result, error)
	// Fetch resolves one round of subqueries against their owners and
	// returns the outcomes index-aligned with sqs. The context carries the
	// query's remaining deadline.
	Fetch(ctx context.Context, sqs []Subquery) []Fetched
	// Do runs CPU work: every splice and unreachable mark goes through it.
	Do(func())
}

// Fetched is the outcome of one subquery: the remote answer fragment,
// rooted at the document root with status tags, and the ID-path keys the
// remote site could not reach itself; or the error that left it unanswered.
type Fetched struct {
	Frag        *xmldb.Node
	Unreachable []string
	Err         error
}

// Gathered is an assembled answer.
type Gathered struct {
	// Answer is the C1/C2 answer fragment, with an unreachable placeholder
	// for every subtree that could not be fetched.
	Answer *fragment.Store
	// Unreachable holds the ID-path keys of those subtrees (nil when the
	// answer is complete).
	Unreachable map[string]bool
	// Pending lists the subqueries a nested fixpoint still had outstanding
	// when it hit maxGatherRounds; their targets are in Unreachable.
	Pending []Subquery
}

// maxGatherRounds bounds a nested plan's evaluate/fetch fixpoint in fetch
// rounds; in practice two or three suffice, the bound only guards against
// pathological ownership configurations.
const maxGatherRounds = 64

// gatherer is the state of one Gather call. Its CPU work hands env.Do
// closures that report through err, so a splice allocates only its closure.
// After a failed splice or mark, err holds the error and both are no-ops.
type gatherer struct {
	Gathered
	env  Env
	root *xmldb.Node // the store's root; the answer's root has its name and id
	err  error
}

// Gather executes the full query-evaluate-gather loop for a compiled query
// (one plan per union branch): evaluate against the local fragment, fetch the
// missing parts via subqueries, and splice everything into one C1/C2 answer.
// The store is never mutated; caching is the env's decision (it sees every
// fetched fragment). A subquery that fails, or that a nested fixpoint cut at
// maxGatherRounds never issued, does not fail the gather: its target becomes
// an unreachable placeholder of a partial answer. opts.Prov receives the
// ledger of exactly the evaluations whose local result joins the answer.
func Gather(ctx context.Context, store *fragment.Store, plans []*Plan, env Env, opts Options) (*Gathered, error) {
	g := &gatherer{env: env, root: store.Root}
	seen := map[string]bool{}
	for _, plan := range plans {
		// A depth-0 plan takes one fetch round: every sub-answer is complete
		// for its scope by induction. A nested plan must assemble the subtree
		// at its gather point before its predicates can be evaluated, so it
		// iterates evaluate -> fetch -> splice on a deep working copy
		// (structural sharing does not preserve the parent axes it may
		// navigate) until no new subqueries appear (Section 4).
		var work *fragment.Store
		snap, o := store, opts
		if plan.NestedIdx >= 0 {
			work = store.Clone()
			snap = work
		}
		var res *Result
		var pending []Subquery
		for round := 0; ; round++ {
			if work != nil && opts.Prov != nil {
				// Intermediate rounds re-read the same units; only the last
				// round's ledger joins.
				o.Prov = NewProvenance(opts.Prov.Now())
			}
			var err error
			if res, err = env.Evaluate(snap, plan, o); err != nil {
				return nil, err
			}
			var fresh []Subquery
			for _, sq := range res.Subqueries {
				if k := sq.Key(); !seen[k] {
					seen[k] = true
					fresh = append(fresh, sq)
				}
			}
			if len(fresh) == 0 {
				break
			}
			if round == maxGatherRounds {
				pending = fresh
				break
			}
			for i, f := range env.Fetch(ctx, fresh) {
				if f.Err != nil {
					// The seen-set guarantees the subquery is not reissued.
					g.mark(fresh[i].Target)
					continue
				}
				g.splice(work, f.Frag)
				// Unreachable markers carry no data, so merging drops them;
				// re-apply the remote site's partial-answer list.
				for _, k := range f.Unreachable {
					if p, err := xmldb.ParseIDPath(k); err == nil {
						g.mark(p)
					}
				}
			}
			if work == nil || g.err != nil {
				break
			}
		}
		if len(plans) == 1 && work == nil && g.Answer == nil {
			// The evaluation's output is all the answer holds, and Evaluate
			// built it fresh for this call: adopt it rather than merge a
			// copy into the empty answer, which would read the same.
			g.Answer = fragment.RestoreStore(res.Fragment)
		} else {
			g.splice(nil, res.Fragment)
		}
		if work != nil && opts.Prov != nil {
			opts.Prov.Merge(o.Prov)
		}
		for _, sq := range pending {
			g.mark(sq.Target)
		}
		if g.err != nil {
			return nil, fmt.Errorf("qeg: assembling the answer: %w", g.err)
		}
		g.Pending = append(g.Pending, pending...)
	}
	g.answer()
	return &g.Gathered, nil
}

// splice merges frag into the working copy, when there is one, and into the
// answer. A nested round's sub-answers join the answer too: the final
// extraction re-evaluates the nested predicates and needs the sibling data
// they reference, not just the matching nodes.
func (g *gatherer) splice(work *fragment.Store, frag *xmldb.Node) {
	if g.err != nil {
		return
	}
	g.env.Do(func() {
		if work != nil {
			g.err = work.MergeFragment(frag)
		}
		if g.err == nil {
			g.err = g.answer().MergeFragment(frag)
		}
	})
}

// mark splices an unreachable placeholder at p into the answer and records p.
func (g *gatherer) mark(p xmldb.IDPath) {
	if g.err != nil {
		return
	}
	g.env.Do(func() { g.err = g.answer().MarkUnreachable(p) })
	if g.Unreachable == nil {
		g.Unreachable = map[string]bool{}
	}
	g.Unreachable[p.Key()] = true
}

// answer returns the answer store, created empty on first use.
func (g *gatherer) answer() *fragment.Store {
	if g.Answer == nil {
		g.Answer = fragment.NewStore(g.root.Name, g.root.ID())
	}
	return g.Answer
}

// LCAPath extracts the ID path of a query's lowest common ancestor from
// the query text alone — the self-starting property of Section 3.4: the
// longest leading /name[@id='x'] sequence (for a union, the longest common
// such prefix across branches). No schema or global state is consulted.
func LCAPath(query string) (xmldb.IDPath, error) {
	expr, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	return LCAPathOf(expr, query)
}

// LCAPathOf is LCAPath for a caller that has already parsed the query text
// into expr.
func LCAPathOf(expr xpath.Expr, query string) (xmldb.IDPath, error) {
	paths, err := unionBranches(expr)
	if err != nil {
		return nil, fmt.Errorf("qeg: %q: %w", query, err)
	}
	var lca xmldb.IDPath
	for i, p := range paths {
		prefix, _ := xpath.IDPrefix(p)
		if len(prefix) == 0 {
			return nil, fmt.Errorf("qeg: query %q has no routable ID prefix (it must start at the document root, e.g. /usRegion[@id='NE']/...)", query)
		}
		if i == 0 {
			lca = prefix
			continue
		}
		lca = commonIDPrefix(lca, prefix)
		if len(lca) == 0 {
			return nil, fmt.Errorf("qeg: union branches of %q share no common root", query)
		}
	}
	return lca, nil
}

func commonIDPrefix(a, b xmldb.IDPath) xmldb.IDPath {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i].Clone()
}

// ExtractOptions tunes ExtractAnswerFull. It has no fields: it stays because
// callers such as benchmark/replay.go pass ExtractOptions{}.
type ExtractOptions struct{}

// ExtractAnswer runs the original user query against an assembled answer
// fragment and returns clean copies of the selected subtrees (status tags
// stripped). Consistency predicates are removed first: the fragment already
// reflects the freshness decisions QEG made, and the paper's owner-side
// semantics ("return the freshest data even if older than the tolerance")
// must not be re-filtered away. Unreachable placeholders (partial answers)
// are skipped; ExtractAnswerFull also lists their paths.
func ExtractAnswer(fragRoot *xmldb.Node, query string, now func() float64) ([]*xmldb.Node, error) {
	nodes, _, err := ExtractAnswerFull(fragRoot, query, now, ExtractOptions{})
	return nodes, err
}

// ExtractAnswerFull is ExtractAnswer plus partial-answer reporting: the
// second return value lists the ID paths of every unreachable-marked
// subtree in the fragment.
func ExtractAnswerFull(fragRoot *xmldb.Node, query string, now func() float64, opts ExtractOptions) ([]*xmldb.Node, []string, error) {
	expr, err := xpath.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	return ExtractParsed(fragRoot, expr, now, opts)
}

// ExtractParsed is ExtractAnswerFull for a caller that has already parsed
// the query text into expr, which it leaves unchanged.
func ExtractParsed(fragRoot *xmldb.Node, expr xpath.Expr, now func() float64, opts ExtractOptions) ([]*xmldb.Node, []string, error) {
	expr = xpath.StripConsistency(expr)
	ctx := &xpatheval.Context{Root: fragRoot, Now: now}
	ns, err := xpatheval.Select(expr, ctx, fragRoot)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*xmldb.Node, 0, len(ns))
	for _, n := range ns {
		if xpatheval.IsAttrNode(n) {
			if !fragment.EffectiveStatus(n.Parent).HasLocalInfo() {
				continue
			}
			out = append(out, n.Clone())
			continue
		}
		// Placeholder stubs (incomplete/id-complete/unreachable) are
		// bookkeeping, not data: a predicate that vacuously passes on a stub
		// (e.g. a not() over missing children) must not surface the stub as
		// an answer. Genuine answer nodes always carry full local
		// information in the assembled fragment, by construction of the
		// gather phase.
		if !fragment.EffectiveStatus(n).HasLocalInfo() {
			continue
		}
		out = append(out, fragment.StripInternal(n))
	}
	var unreachable []string
	for _, p := range (&fragment.Store{Root: fragRoot}).UnreachablePaths() {
		unreachable = append(unreachable, p.String())
	}
	return out, unreachable, nil
}
