package qeg

import (
	"context"
	"errors"
	"fmt"

	"irisnet/internal/fragment"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
	"irisnet/internal/xpatheval"
)

// Fetcher resolves one subquery against the rest of the system (the site
// layer implements it by routing to the target's owner) and returns the
// remote answer fragment, rooted at the document root with status tags.
// The context carries the query's remaining deadline; fetchers must give
// up once it expires.
type Fetcher func(ctx context.Context, sq Subquery) (*xmldb.Node, error)

// maxGatherRounds bounds the evaluate/fetch fixpoint for nested queries; in
// practice two or three rounds suffice, the bound only guards against
// pathological ownership configurations.
const maxGatherRounds = 64

// TruncatedError reports a gather loop that hit maxGatherRounds before the
// evaluate/fetch fixpoint converged. The answer assembled so far is still
// returned alongside it — callers that can serve partial answers should,
// rather than discard the gathered work. Pending lists the subqueries that
// were still outstanding when the loop stopped.
type TruncatedError struct {
	// Query is the offending query.
	Query string
	// Rounds is the number of gather rounds that ran.
	Rounds int
	// Pending are the subqueries the truncated loop never issued.
	Pending []Subquery
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("qeg: gather truncated: %q did not converge after %d rounds (%d subqueries pending)",
		e.Query, e.Rounds, len(e.Pending))
}

// Gather executes the full query-evaluate-gather loop for a compiled query
// (one plan per union branch): evaluate against the local fragment, fetch
// the missing parts via subqueries, and splice everything into one C1/C2
// answer fragment. The local store is never mutated; caching is the
// caller's decision (it sees every fetched fragment through its Fetcher).
func Gather(ctx context.Context, store *fragment.Store, plans []*Plan, fetch Fetcher, opts Options) (*xmldb.Node, error) {
	ans := fragment.NewStore(store.Root.Name, store.Root.ID())
	seen := map[string]bool{}
	for _, plan := range plans {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if plan.NestedIdx >= 0 {
			if err := gatherNested(ctx, store, plan, fetch, opts, ans, seen); err != nil {
				var trunc *TruncatedError
				if errors.As(err, &trunc) {
					// Truncation keeps the partial answer: the caller gets
					// everything gathered so far plus an explicit marker in
					// the error, instead of losing the work.
					return ans.Root, err
				}
				return nil, err
			}
			continue
		}
		res, err := Evaluate(store, plan, opts)
		if err != nil {
			return nil, err
		}
		if err := ans.MergeFragment(res.Fragment); err != nil {
			return nil, fmt.Errorf("qeg: merging local result: %w", err)
		}
		for _, sq := range res.Subqueries {
			if seen[sq.Key()] {
				continue
			}
			seen[sq.Key()] = true
			sub, err := fetch(ctx, sq)
			if err != nil {
				return nil, fmt.Errorf("qeg: subquery %s at %s: %w", sq.Query, sq.Target, err)
			}
			if err := ans.MergeFragment(sub); err != nil {
				return nil, fmt.Errorf("qeg: splicing subanswer for %s: %w", sq.Target, err)
			}
		}
	}
	return ans.Root, nil
}

// gatherNested handles nesting depth >= 1: the subtree at the gather point
// must be assembled before the nested predicates can be evaluated, so the
// loop iterates evaluate -> fetch -> merge on a working copy of the store
// until no new subqueries appear (Section 4).
func gatherNested(ctx context.Context, store *fragment.Store, plan *Plan, fetch Fetcher, opts Options, ans *fragment.Store, seen map[string]bool) error {
	work := store.Clone()
	for round := 0; round < maxGatherRounds; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := Evaluate(work, plan, opts)
		if err != nil {
			return err
		}
		var fresh []Subquery
		for _, sq := range res.Subqueries {
			if !seen[sq.Key()] {
				seen[sq.Key()] = true
				fresh = append(fresh, sq)
			}
		}
		if len(fresh) == 0 {
			return ans.MergeFragment(res.Fragment)
		}
		if round == maxGatherRounds-1 {
			// Out of rounds with work still pending: keep what this round
			// evaluated (the merged fetches are already in ans) and report
			// the truncation with the offending query instead of discarding
			// everything gathered so far.
			if merr := ans.MergeFragment(res.Fragment); merr != nil {
				return fmt.Errorf("qeg: merging truncated result: %w", merr)
			}
			return &TruncatedError{Query: plan.Source, Rounds: maxGatherRounds, Pending: fresh}
		}
		for _, sq := range fresh {
			sub, err := fetch(ctx, sq)
			if err != nil {
				return fmt.Errorf("qeg: nested subquery %s at %s: %w", sq.Query, sq.Target, err)
			}
			if err := work.MergeFragment(sub); err != nil {
				return fmt.Errorf("qeg: merging nested subanswer: %w", err)
			}
			// The gathered subtree also joins the answer: the final
			// extraction re-evaluates the nested predicates and needs the
			// sibling data they reference, not just the matching nodes.
			if err := ans.MergeFragment(sub); err != nil {
				return fmt.Errorf("qeg: splicing nested subanswer: %w", err)
			}
		}
	}
	// Unreachable: the last loop iteration either converged or returned the
	// truncation error above.
	return &TruncatedError{Query: plan.Source, Rounds: maxGatherRounds}
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

// ExtractOptions tunes ExtractAnswerFull.
type ExtractOptions struct {
	// ReportUnreachable includes selected nodes that are unreachable
	// placeholders in the returned node set, with their status="unreachable"
	// attribute retained so callers can tell data from markers. By default
	// such stubs are skipped like any other placeholder.
	ReportUnreachable bool
}

// ExtractAnswer runs the original user query against an assembled answer
// fragment and returns clean copies of the selected subtrees (status tags
// stripped). Consistency predicates are removed first: the fragment already
// reflects the freshness decisions QEG made, and the paper's owner-side
// semantics ("return the freshest data even if older than the tolerance")
// must not be re-filtered away. Unreachable placeholders (partial answers)
// are skipped; use ExtractAnswerFull to see them.
func ExtractAnswer(fragRoot *xmldb.Node, query string, now func() float64) ([]*xmldb.Node, error) {
	nodes, _, err := ExtractAnswerFull(fragRoot, query, now, ExtractOptions{})
	return nodes, err
}

// ExtractAnswerFull is ExtractAnswer plus partial-answer reporting: the
// second return value lists the ID paths of every unreachable-marked
// subtree in the fragment, and opts controls whether unreachable stubs
// matching the selection are surfaced as nodes.
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
		if opts.ReportUnreachable && fragment.StatusOf(n) == fragment.StatusUnreachable {
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
