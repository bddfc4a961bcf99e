package site

import (
	"context"
	"fmt"
	"sync"
	"time"

	"irisnet/internal/qeg"
	"irisnet/internal/trace"
	"irisnet/internal/xmldb"
)

// fetched is the outcome of one dispatched subrequest, index-aligned with the
// requests handed to dispatch. span, when set, is a span to hang under the
// querying hop: the remote hop's span of a sent entry (a synthetic error span
// when the send failed), or a local marker on the coalesced path.
type fetched[T any] struct {
	val   T
	downs []string // remote site's unreachable paths (partial answers compose)
	span  *trace.Span
	err   error
}

// rawAnswer is what a raw subquery fetches.
type rawAnswer struct {
	frag  *xmldb.Node
	bytes int // wire size of the fetched fragment (freshness ledger)
}

// subKind is all the dispatcher knows about a family of subrequests. Raw
// subqueries (rawAnswer) and aggregate subrequests (aggAnswer) travel,
// coalesce, batch and fail identically; they differ only in how a request is
// tagged on the wire, what payload an answer carries, and what happens to a
// payload once it has landed.
type subKind[T any] struct {
	// name labels the family in error text; entryKind tags its requests
	// inside a KindBatch message.
	name, entryKind string
	flights         *flightGroup[fetched[T]]
	// decode reads the payload out of a healthy answer entry.
	decode func(*BatchEntry) (T, error)
	// landed, when set, is handed the outcomes of one upstream answer after
	// decoding and before any of their flights retire.
	landed func(rs ...*fetched[T])
}

// flight is one in-progress upstream fetch that concurrent queries for the
// same generalized subquery share. The leader performs the fetch (possibly
// inside a batch) and publishes the outcome; followers select on done
// against their own context so a slow waiter cannot leak the flight. The
// result type is generic because raw subqueries and aggregate subrequests
// share the mechanism but not the payload.
type flight[T any] struct {
	done chan struct{}
	res  T
}

// flightGroup dedups identical in-flight subrequests by qeg.Subquery.Key()
// (singleflight). Keys carry the full generalized query text including its
// consistency predicates, so joiners can never be handed a fragment staler
// than their own freshness tolerance: a different tolerance is a different
// key, hence a different flight.
type flightGroup[T any] struct {
	mu      sync.Mutex
	flights map[string]*flight[T]
}

func newFlightGroup[T any]() *flightGroup[T] {
	return &flightGroup[T]{flights: map[string]*flight[T]{}}
}

// join returns the flight for key and whether the caller leads it. A leader
// must eventually call finish exactly once; followers wait on done.
func (g *flightGroup[T]) join(key string) (*flight[T], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f, false
	}
	f := &flight[T]{done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// finish publishes the leader's outcome and retires the flight. The key is
// removed before done closes, so no new joiner can observe a completed
// flight (and thus a fragment fetched before its own query even started
// resolving — the freshness guarantee above depends on this ordering).
func (g *flightGroup[T]) finish(key string, f *flight[T], r T) {
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	f.res = r
	close(f.done)
}

// pendingSub is one subrequest this dispatch call must actually send: its
// index into the request slice, its routing target and its wire form.
type pendingSub struct {
	idx    int
	target xmldb.IDPath
	entry  BatchEntry
}

// decodeRaw is the raw family's payload decoder: the answer fragment, parsed.
func decodeRaw(e *BatchEntry) (rawAnswer, error) {
	frag, err := xmldb.ParseString(e.Fragment)
	return rawAnswer{frag: frag, bytes: len(e.Fragment)}, err
}

// cacheFetched folds the fragments of one upstream answer — every healthy
// entry of a batch answer — into the site cache as one merge transaction
// (mergeCache) before any of their flights retire, so a query arriving after
// a flight finishes finds the data cached — there is no window where a
// subquery neither joins the flight nor hits the cache. A result whose fragment fails to merge (a "cannot happen"
// path: the same validation accepts the fragment into the answer) is
// reported failed, marking just that subtree unreachable. Results that
// already carry an error are left alone; no-op when caching is off.
func (s *Site) cacheFetched(rs ...*fetched[rawAnswer]) {
	if !s.cfg.Caching {
		return
	}
	healthy := make([]*fetched[rawAnswer], 0, len(rs))
	frags := make([]*xmldb.Node, 0, len(rs))
	for _, r := range rs {
		if r.err == nil && r.val.frag != nil {
			healthy = append(healthy, r)
			frags = append(frags, r.val.frag)
		}
	}
	if len(frags) == 0 {
		return
	}
	for i, err := range s.mergeCache(frags) {
		if err != nil {
			healthy[i].val.frag = nil
			healthy[i].err = fmt.Errorf("site %s: caching subanswer: %w", s.cfg.Name, err)
		}
	}
}

// errSpan builds the synthetic span recorded when a fetch fails before a
// remote span could be produced, so the trace tree still shows where a
// partial answer lost its subtree.
func errSpan(traceID, site, query string, err error) *trace.Span {
	if traceID == "" {
		return nil
	}
	return &trace.Span{TraceID: traceID, Site: site, Query: query, Op: "query", Error: err.Error()}
}

// dispatch fetches every subrequest of one gather round concurrently and
// returns results index-aligned with reqs, billing the wait to the hop's
// communication stage and hanging the remote spans under the hop's. Every
// subrequest travels as an entry of a KindBatch message (sendBatch), alone
// or with others:
//
//   - Coalescing (caching sites): identical in-flight subrequests share one
//     upstream fetch through the kind's flightGroup. The first query to want
//     a key leads the flight; concurrent queries join as followers and
//     use the same returned payload. Followers keep their own context
//     (a canceled waiter abandons the flight without killing it) and fall
//     back to a private one-entry batch when the flight itself fails, so a
//     leader's tight deadline cannot poison its followers.
//
//   - Batching: subrequests bound for the same owner site ship as one
//     KindBatch message (split by cfg.BatchByteCap) instead of N separate
//     round trips, sharing one deadline and one retry budget.
//
// Metrics: Subqueries counts subrequests actually sent upstream, SubqueryRPCs
// counts network sends (so Subqueries - SubqueryRPCs is the messaging saved
// by batching), and Coalesced counts subrequests answered by joining a
// flight.
func dispatch[T any](ctx context.Context, h *hop, k *subKind[T], reqs []qeg.Subquery) []fetched[T] {
	s, traceID := h.s, h.msg.TraceID
	h.fanout += len(reqs)
	tc := time.Now()
	results := make([]fetched[T], len(reqs))

	// Partition into subrequests this call sends (flight leaders, or all of
	// them without caching) and followers (wait on someone else's fetch). Keys within one dispatch call are
	// distinct (the gather's seen-set, or disjoint aggregate targets), so a
	// follower's leader is always another query's goroutine.
	var toFetch []pendingSub
	type waiter struct {
		p  pendingSub
		fl *flight[fetched[T]]
	}
	var waiters []waiter
	type ledFlight struct {
		key string
		fl  *flight[fetched[T]]
	}
	leaders := map[int]ledFlight{}
	for i, r := range reqs {
		p := pendingSub{i, r.Target, BatchEntry{Kind: k.entryKind, Query: r.Query}}
		if !s.cfg.Caching {
			toFetch = append(toFetch, p)
			continue
		}
		key := r.Key()
		if fl, leads := k.flights.join(key); leads {
			leaders[i] = ledFlight{key, fl}
			toFetch = append(toFetch, p)
		} else {
			waiters = append(waiters, waiter{p, fl})
		}
	}

	// A leader must complete its flight on every outcome, or followers hang
	// until their own contexts expire. For a follower's index it is a no-op.
	finishLeader := func(idx int) {
		if led, ok := leaders[idx]; ok {
			k.flights.finish(led.key, led.fl, results[idx])
		}
	}
	// resolve names the owner of p's target; a failure is p's outcome.
	resolve := func(p pendingSub) (string, bool) {
		owner, err := s.cfg.DNS.Resolve(p.target)
		if err != nil {
			err = fmt.Errorf("site %s: resolving %s: %w", s.cfg.Name, p.target, err)
			results[p.idx] = fetched[T]{err: err, span: errSpan(traceID, p.target.String(), p.entry.Query, err)}
			finishLeader(p.idx)
			return "", false
		}
		return owner, true
	}

	groups := map[string][]pendingSub{}
	var order []string
	for _, p := range toFetch {
		owner, ok := resolve(p)
		if !ok {
			continue
		}
		if _, ok := groups[owner]; !ok {
			order = append(order, owner)
		}
		groups[owner] = append(groups[owner], p)
	}
	var wg sync.WaitGroup
	for _, owner := range order {
		for _, piece := range splitByByteCap(groups[owner], s.cfg.BatchByteCap) {
			wg.Add(1)
			go func(owner string, piece []pendingSub) {
				defer wg.Done()
				sendBatch(ctx, s, k, owner, piece, traceID, results, finishLeader)
			}(owner, piece)
		}
	}

	for _, w := range waiters {
		wg.Add(1)
		go func(w waiter) {
			defer wg.Done()
			select {
			case <-w.fl.done:
				if w.fl.res.err != nil {
					// The flight failed — possibly the leader's deadline,
					// not ours. Fall back to a private fetch rather than
					// inheriting the leader's failure.
					if owner, ok := resolve(w.p); ok {
						sendBatch(ctx, s, k, owner, []pendingSub{w.p}, traceID, results, finishLeader)
					}
					return
				}
				s.Metrics.Coalesced.Inc()
				r := w.fl.res
				r.span = nil
				if traceID != "" {
					// A marker span with this query's own trace ID; adopting
					// the leader's subtree would mix trace IDs in one tree.
					r.span = &trace.Span{TraceID: traceID, Site: s.cfg.Name, Query: w.p.entry.Query, Op: "coalesced"}
				}
				results[w.p.idx] = r
			case <-ctx.Done():
				err := fmt.Errorf("site %s: awaiting coalesced %s: %w", s.cfg.Name, k.name, ctx.Err())
				results[w.p.idx] = fetched[T]{err: err, span: errSpan(traceID, s.cfg.Name, w.p.entry.Query, err)}
			}
		}(w)
	}
	wg.Wait()

	h.commTime += time.Since(tc)
	if h.span != nil {
		for _, r := range results {
			if r.span != nil {
				h.span.Children = append(h.span.Children, r.span)
			}
		}
	}
	return results
}

// splitByByteCap partitions one destination group into pieces whose encoded
// entry payloads stay under capBytes, preserving order. Every piece holds at
// least one entry, so a single oversized subrequest still ships (the
// transport frame limit, not this cap, is the hard bound).
func splitByByteCap(group []pendingSub, capBytes int) [][]pendingSub {
	var pieces [][]pendingSub
	var cur []pendingSub
	size := 0
	for i, p := range group {
		n := len(marshal(&group[i].entry)) + 1 // +1 for the JSON array separator
		if len(cur) > 0 && size+n > capBytes {
			pieces = append(pieces, cur)
			cur, size = nil, 0
		}
		cur = append(cur, p)
		size += n
	}
	if len(cur) > 0 {
		pieces = append(pieces, cur)
	}
	return pieces
}

// sendBatch ships one KindBatch message carrying piece's subrequests to
// owner, retrying transient failures within the context's deadline, decodes
// the per-entry answers into results, hands the healthy ones to the kind's
// landed hook together (for raw fragments: one cache merge transaction), and
// then completes any flights those entries lead. Each result carries the
// remote site's unreachable-path list (partial answers compose across hops)
// and, when traceID is set, its entry's remote hop span — a synthetic error
// span when the whole send failed, so the trace tree still shows where a
// partial answer lost its subtree. CPU is consumed for encode/decode; the
// network wait itself is not billed to this site's capacity.
func sendBatch[T any](ctx context.Context, s *Site, k *subKind[T], owner string, piece []pendingSub, traceID string, results []fetched[T], finishLeader func(int)) {
	entries := make([]BatchEntry, len(piece))
	for i, p := range piece {
		entries[i] = p.entry
	}
	var payload []byte
	s.cpu.Do(func() {
		m := &Message{Kind: KindBatch, TraceID: traceID, Entries: entries}
		m.StampDeadline(ctx)
		payload = m.Encode()
	})
	s.Metrics.Subqueries.Add(int64(len(piece)))
	s.Metrics.SubqueryRPCs.Inc()
	s.Metrics.BatchSize.Observe(float64(len(piece)))

	fail := func(err error) {
		for _, p := range piece {
			results[p.idx] = fetched[T]{err: err, span: errSpan(traceID, owner, p.entry.Query, err)}
			finishLeader(p.idx)
		}
	}

	respB, err := s.call.Call(ctx, owner, payload)
	if err != nil {
		fail(fmt.Errorf("site %s: %s batch to %s: %w", s.cfg.Name, k.name, owner, err))
		return
	}
	var resp *Message
	var derr error
	s.cpu.Do(func() {
		resp, derr = DecodeMessage(respB)
	})
	if derr == nil {
		derr = resp.AsError()
	}
	if derr == nil && len(resp.Entries) != len(piece) {
		derr = fmt.Errorf("%d answer entries for %d subrequests", len(resp.Entries), len(piece))
	}
	if derr != nil {
		fail(fmt.Errorf("site %s: %s batch answer from %s: %w", s.cfg.Name, k.name, owner, derr))
		return
	}

	landed := make([]*fetched[T], len(piece))
	for i, p := range piece {
		e := &resp.Entries[i]
		r := &results[p.idx]
		*r = fetched[T]{downs: e.Unreachable, span: e.Span}
		landed[i] = r
		if e.Status != BatchEntryOK {
			r.err = fmt.Errorf("site %s: %s batch entry from %s: %s", s.cfg.Name, k.name, owner, e.Error)
			continue
		}
		var val T
		var perr error
		s.cpu.Do(func() {
			val, perr = k.decode(e)
		})
		if perr != nil {
			r.err = fmt.Errorf("site %s: %s batch entry from %s: %w", s.cfg.Name, k.name, owner, perr)
			continue
		}
		r.val = val
	}
	// The whole answer lands at once (for raw fragments, one cache commit),
	// and only then do the entries' flights retire.
	if k.landed != nil {
		k.landed(landed...)
	}
	for _, p := range piece {
		finishLeader(p.idx)
	}
}

// handleBatch answers a KindBatch message: every entry evaluates through the
// normal query path against one pinned snapshot — a single atomic load, so
// all entries of a batch answer from the same consistent version — and the
// per-entry outcomes return in request order with individual statuses and
// their own hop spans. One failed entry does not fail the batch; the sender
// splices the others and marks only the failed target unreachable.
func (s *Site) handleBatch(ctx context.Context, msg *Message) *Message {
	if len(msg.Entries) == 0 {
		return errorMessage(fmt.Errorf("site %s: empty batch", s.cfg.Name))
	}
	snap := s.state.Load().store
	out := make([]BatchEntry, len(msg.Entries))
	var wg sync.WaitGroup
	for i, e := range msg.Entries {
		wg.Add(1)
		go func(i int, kind, query string) {
			defer wg.Done()
			if kind == KindAggregate {
				em := &Message{Kind: KindAggregate, Query: query, TraceID: msg.TraceID}
				resp := s.handleAggregate(ctx, em, len(query), snap)
				if err := resp.AsError(); err != nil {
					out[i] = BatchEntry{Status: BatchEntryError, Error: err.Error(),
						Span: errSpan(msg.TraceID, s.cfg.Name, query, err)}
					return
				}
				out[i] = BatchEntry{Status: BatchEntryOK, Agg: resp.Agg,
					Unreachable: resp.Unreachable, Truncated: resp.Truncated, Span: resp.Span}
				return
			}
			em := &Message{Kind: KindQuery, Query: query, TraceID: msg.TraceID}
			resp := s.handleQuery(ctx, em, len(query), snap)
			if err := resp.AsError(); err != nil {
				out[i] = BatchEntry{Status: BatchEntryError, Error: err.Error(),
					Span: errSpan(msg.TraceID, s.cfg.Name, query, err)}
				return
			}
			out[i] = BatchEntry{Status: BatchEntryOK, Fragment: resp.Fragment,
				Unreachable: resp.Unreachable, Span: resp.Span}
		}(i, e.Kind, e.Query)
	}
	wg.Wait()
	return &Message{Kind: KindBatchResult, Entries: out}
}
