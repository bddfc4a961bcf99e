// Package service provides the user-facing front end: it turns an XPath
// query into a self-starting distributed query (Section 3.4) by extracting
// the lowest-common-ancestor ID path from the query text, resolving its
// DNS-style name, sending the query to that site, and extracting the final
// answer from the returned fragment.
package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"irisnet/internal/naming"
	"irisnet/internal/qeg"
	"irisnet/internal/site"
	"irisnet/internal/trace"
	"irisnet/internal/transport"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

// Frontend poses queries on behalf of users anywhere on the Internet.
type Frontend struct {
	// Net is the transport used to reach sites.
	Net transport.Network
	// DNS resolves node names; a frontend typically has its own resolver
	// cache (the "DNS server near the query").
	DNS *naming.Client
	// Clock supplies now() for consistency evaluation; nil uses wall time.
	Clock func() float64
	// ForceEntry, when non-empty, routes every query to the named site,
	// bypassing self-starting (used by the architecture-comparison and
	// micro-benchmark experiments that pin the entry point).
	ForceEntry string
	// Timeout is the end-to-end deadline applied to queries and updates
	// whose context does not already carry one. Zero means no deadline.
	Timeout time.Duration
	// Retry shapes the retry loop around the entry-site call; the zero
	// value uses the transport defaults.
	Retry transport.RetryPolicy
	// Trace stamps a fresh TraceID on every query this frontend issues, so
	// each hop records a span. The assembled trace tree is returned by
	// QueryTrace; the other query methods discard it. Used directly by the
	// trace-overhead benchmark, which measures tracing cost without
	// inspecting the trees.
	Trace bool
	// WatchFailureBudget is how many consecutive evaluation failures a
	// standing query (WatchQuery) tolerates before terminating. Zero uses
	// DefaultWatchFailureBudget.
	WatchFailureBudget int

	callOnce sync.Once
	call     *transport.Caller
}

// Answer is a query result: the selected subtrees plus the ID paths of any
// subtrees the system could not reach before the deadline (partial answer).
type Answer struct {
	Nodes []*xmldb.Node
	// Unreachable is empty for a complete answer. Paths come from both the
	// entry site's report and unreachable markers in the fragment itself.
	Unreachable []string
	// Truncated marks an answer whose gather loop hit its round bound
	// before converging; the outstanding subtrees appear in Unreachable.
	Truncated bool
}

// Partial reports whether any subtree was unreachable or the gather was
// truncated.
func (a *Answer) Partial() bool { return len(a.Unreachable) > 0 || a.Truncated }

// NewFrontend builds a frontend.
func NewFrontend(net transport.Network, dns *naming.Client) *Frontend {
	return &Frontend{
		Net: net,
		DNS: dns,
		Clock: func() float64 {
			return float64(time.Now().UnixNano()) / 1e9
		},
	}
}

// caller lazily builds the resilient caller so zero-value Frontends (tests
// construct them literally) still retry.
func (f *Frontend) caller() *transport.Caller {
	f.callOnce.Do(func() {
		f.call = &transport.Caller{
			Net:    f.Net,
			Policy: f.Retry,
			Budget: transport.NewRetryBudget(0, 0),
		}
	})
	return f.call
}

// withDeadline applies the frontend's default timeout when the caller's
// context does not already have one.
func (f *Frontend) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); !ok && f.Timeout > 0 {
		return context.WithTimeout(ctx, f.Timeout)
	}
	return ctx, func() {}
}

// RouteOf returns the site a query would be sent to, without sending it.
// Strict queries — any freshness conjunct outside the time-invariant
// compiled subset, tolerance 0 — go to the owner of the query's LCA node.
// Freshness-tolerant queries may route to a registered read replica whose
// lag bound fits inside the query's tolerance; rendezvous hashing on the
// query text pins repeats of the same query to the same replica, which
// (with in-order replication apply) keeps each query stream's answers
// monotone. Exposed for tests and the harness.
func (f *Frontend) RouteOf(query string) (string, xmldb.IDPath, error) {
	if f.ForceEntry != "" {
		return f.ForceEntry, nil, nil
	}
	expr, err := xpath.Parse(query)
	if err != nil {
		return "", nil, err
	}
	return f.routeParsed(query, expr)
}

// routeParsed is RouteOf for a caller that has already parsed the query
// text into expr.
func (f *Frontend) routeParsed(query string, expr xpath.Expr) (string, xmldb.IDPath, error) {
	if f.ForceEntry != "" {
		return f.ForceEntry, nil, nil
	}
	lca, err := qeg.LCAPathOf(expr, query)
	if err != nil {
		return "", nil, err
	}
	entry, _, err := f.DNS.ResolveRead(lca, xpath.FreshnessTolerance(expr), query, "")
	if err != nil {
		return "", nil, err
	}
	return entry, lca, nil
}

// Query runs the query end to end and returns the selected subtrees with
// internal bookkeeping stripped. Unreachable placeholders are skipped; use
// QueryFull to see which subtrees a partial answer is missing.
func (f *Frontend) Query(query string) ([]*xmldb.Node, error) {
	return f.QueryContext(context.Background(), query)
}

// QueryContext is Query with a caller-supplied context/deadline.
func (f *Frontend) QueryContext(ctx context.Context, query string) ([]*xmldb.Node, error) {
	ans, err := f.QueryFull(ctx, query)
	if err != nil {
		return nil, err
	}
	return ans.Nodes, nil
}

// QueryFull runs the query end to end and reports partial-answer
// information alongside the selected subtrees. Tracing follows f.Trace;
// the span (if any) is discarded — use QueryTrace to see it.
func (f *Frontend) QueryFull(ctx context.Context, query string) (*Answer, error) {
	ans, _, err := f.queryTraced(ctx, query, f.Trace)
	return ans, err
}

// QueryTrace runs the query with distributed tracing forced on and returns
// the assembled trace tree alongside the answer: one span per hop, rooted
// at the entry site, children in gather order (`irisquery -trace`). The
// span is nil only when the query failed outright.
func (f *Frontend) QueryTrace(ctx context.Context, query string) (*Answer, *trace.Span, error) {
	return f.queryTraced(ctx, query, true)
}

func (f *Frontend) queryTraced(ctx context.Context, query string, traced bool) (*Answer, *trace.Span, error) {
	// The query text is parsed once, here; routing, aggregate detection and
	// extraction all work from the expression.
	expr, err := xpath.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	// Aggregate queries take the partial-aggregation path transparently: the
	// caller sees the value as one synthetic node in the ordinary Answer
	// shape. An aggregate-shaped query with an unsupported form errors here.
	if _, isAgg, aggErr := xpath.AggregateOf(expr, query); isAgg || aggErr != nil {
		if aggErr != nil {
			return nil, nil, aggErr
		}
		agg, span, err := f.queryAggregate(ctx, query, traced)
		if err != nil {
			return nil, span, err
		}
		return aggregateAsAnswer(agg), span, nil
	}
	frag, reported, truncated, span, err := f.queryFragment(ctx, query, expr, traced)
	if err != nil {
		return nil, nil, err
	}
	nodes, marked, err := qeg.ExtractParsed(frag, expr, f.Clock, qeg.ExtractOptions{})
	if err != nil {
		return nil, span, err
	}
	return &Answer{Nodes: nodes, Unreachable: mergePaths(reported, marked), Truncated: truncated}, span, nil
}

// QueryFragment runs the query and returns the raw assembled answer
// fragment (status-tagged, C1/C2-valid), which callers may cache.
func (f *Frontend) QueryFragment(query string) (*xmldb.Node, error) {
	return f.QueryFragmentContext(context.Background(), query)
}

// QueryFragmentContext is QueryFragment with a caller-supplied context.
func (f *Frontend) QueryFragmentContext(ctx context.Context, query string) (*xmldb.Node, error) {
	expr, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	frag, _, _, _, err := f.queryFragment(ctx, query, expr, f.Trace)
	return frag, err
}

func (f *Frontend) queryFragment(ctx context.Context, query string, expr xpath.Expr, traced bool) (*xmldb.Node, []string, bool, *trace.Span, error) {
	entry, _, err := f.routeParsed(query, expr)
	if err != nil {
		return nil, nil, false, nil, err
	}
	ctx, cancel := f.withDeadline(ctx)
	defer cancel()
	msg := &site.Message{Kind: site.KindQuery, Query: query}
	if traced {
		msg.TraceID = trace.NewTraceID()
	}
	msg.StampDeadline(ctx)
	respB, err := f.caller().Call(ctx, entry, msg.Encode())
	if err != nil {
		return nil, nil, false, nil, fmt.Errorf("service: query to %s: %w", entry, err)
	}
	resp, err := site.DecodeMessage(respB)
	if err != nil {
		return nil, nil, false, nil, err
	}
	if e := resp.AsError(); e != nil {
		return nil, nil, false, nil, e
	}
	frag, err := xmldb.ParseString(resp.Fragment)
	if err != nil {
		return nil, nil, false, resp.Span, err
	}
	return frag, resp.Unreachable, resp.Truncated, resp.Span, nil
}

// mergePaths unions two sorted-ish path lists, preserving first-seen order.
func mergePaths(a, b []string) []string {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	seen := map[string]bool{}
	out := make([]string, 0, len(a)+len(b))
	for _, lst := range [][]string{a, b} {
		for _, p := range lst {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// LCAPath extracts the ID path of the query's lowest common ancestor from
// the query text alone — the paper's key self-starting property: no global
// information, no schema, just the leading /name[@id='x'] sequence (for a
// union, the longest common such prefix across branches).
func LCAPath(query string) (xmldb.IDPath, error) { return qeg.LCAPath(query) }

// Update sends a sensor update to the owner of the target node, resolved
// via DNS exactly as sensing agents do.
func (f *Frontend) Update(path xmldb.IDPath, fields, attrs map[string]string) error {
	return f.UpdateContext(context.Background(), path, fields, attrs)
}

// UpdateContext is Update with a caller-supplied context/deadline.
func (f *Frontend) UpdateContext(ctx context.Context, path xmldb.IDPath, fields, attrs map[string]string) error {
	owner, err := f.DNS.Resolve(path)
	if err != nil {
		return err
	}
	ctx, cancel := f.withDeadline(ctx)
	defer cancel()
	msg := &site.Message{Kind: site.KindUpdate, Path: path.String(), Fields: fields, Attrs: attrs}
	msg.StampDeadline(ctx)
	respB, err := f.caller().Call(ctx, owner, msg.Encode())
	if err != nil {
		return err
	}
	resp, err := site.DecodeMessage(respB)
	if err != nil {
		return err
	}
	return resp.AsError()
}
