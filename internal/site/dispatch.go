package site

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"irisnet/internal/qeg"
	"irisnet/internal/trace"
	"irisnet/internal/xmldb"
)

// subResult is the outcome of one dispatched subquery, index-aligned with
// the fresh slice handed to dispatchSubqueries. span, when set, is a span to
// hang under the querying hop (the remote hop's span on the single-message
// path, a local marker on the coalesced path); batched entries leave it nil
// because their spans travel as children of the batch span.
type subResult struct {
	frag  *xmldb.Node
	downs []string // remote site's unreachable paths (partial answers compose)
	bytes int      // wire size of the fetched fragment (freshness ledger)
	span  *trace.Span
	err   error
}

// flight is one in-progress upstream fetch that concurrent queries for the
// same generalized subquery share. The leader performs the fetch (possibly
// inside a batch) and publishes the outcome; followers select on done
// against their own context so a slow waiter cannot leak the flight. The
// result type is generic because raw subqueries (subResult) and aggregate
// subrequests (aggResult) share the mechanism but not the payload.
type flight[T any] struct {
	done chan struct{}
	res  T
}

// flightGroup dedups identical in-flight subqueries by qeg.Subquery.Key()
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

// pendingSub is one subquery this dispatch call must actually send, with its
// index into the fresh slice.
type pendingSub struct {
	idx int
	sq  qeg.Subquery
}

// cacheFetched folds the fragments of one upstream answer — every healthy
// entry of a batch answer, or the single fragment of a plain subquery — into
// the site cache as one merge transaction (mergeCache) before any of their
// flights retire, so a query arriving after a flight finishes finds the data
// cached — there is no window where a subquery neither joins the flight nor
// hits the cache. A result whose fragment fails to merge (a "cannot happen"
// path: the same validation accepts the fragment into the answer) is
// reported failed, marking just that subtree unreachable. Results that
// already carry an error are left alone; no-op when caching is off.
func (s *Site) cacheFetched(rs ...*subResult) {
	if !s.cfg.Caching {
		return
	}
	fetched := make([]*subResult, 0, len(rs))
	frags := make([]*xmldb.Node, 0, len(rs))
	for _, r := range rs {
		if r.err == nil && r.frag != nil {
			fetched = append(fetched, r)
			frags = append(frags, r.frag)
		}
	}
	if len(frags) == 0 {
		return
	}
	for i, err := range s.mergeCache(frags) {
		if err != nil {
			fetched[i].frag = nil
			fetched[i].err = fmt.Errorf("site %s: caching subanswer: %w", s.cfg.Name, err)
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

// dispatchSubqueries fetches every fresh subquery concurrently and returns
// results index-aligned with fresh, plus the batch-level spans to attach to
// the querying hop. Two optimizations apply on top of the plain
// one-message-per-subquery path:
//
//   - Coalescing (caching sites): identical in-flight subqueries share one
//     upstream fetch through the site's flightGroup. The first query to want
//     a key leads the flight; concurrent queries join as followers and
//     splice the same returned fragment. Followers keep their own context
//     (a canceled waiter abandons the flight without killing it) and fall
//     back to a private fetch when the flight itself fails, so a leader's
//     tight deadline cannot poison its followers.
//
//   - Batching: subqueries bound for the same owner site ship as one
//     KindBatch message (split by cfg.BatchByteCap) instead of N separate
//     round trips, sharing one deadline, one retry budget and one span.
//
// Metrics: Subqueries counts subqueries actually sent upstream, SubqueryRPCs
// counts network sends (so Subqueries - SubqueryRPCs is the messaging saved
// by batching), and Coalesced counts subqueries answered by joining a
// flight.
func (s *Site) dispatchSubqueries(ctx context.Context, fresh []qeg.Subquery, traceID string) ([]subResult, []*trace.Span) {
	results := make([]subResult, len(fresh))

	// Partition into flight leaders/singles (must fetch) and followers
	// (wait on someone else's fetch). Keys within one dispatch call are
	// distinct (handleQuery's seen-set), so a follower's leader is always
	// another query's goroutine.
	var toFetch []pendingSub
	type waiter struct {
		idx int
		sq  qeg.Subquery
		fl  *flight[subResult]
	}
	var waiters []waiter
	type ledFlight struct {
		key string
		fl  *flight[subResult]
	}
	leaders := map[int]ledFlight{}
	if s.cfg.Caching && !s.cfg.DisableCoalescing {
		for i, sq := range fresh {
			key := sq.Key()
			fl, leads := s.flights.join(key)
			if leads {
				leaders[i] = ledFlight{key, fl}
				toFetch = append(toFetch, pendingSub{i, sq})
			} else {
				waiters = append(waiters, waiter{i, sq, fl})
			}
		}
	} else {
		for i, sq := range fresh {
			toFetch = append(toFetch, pendingSub{i, sq})
		}
	}

	// A leader must complete its flight on every outcome, or followers hang
	// until their own contexts expire.
	finishLeader := func(idx int) {
		if led, ok := leaders[idx]; ok {
			s.flights.finish(led.key, led.fl, results[idx])
		}
	}

	var wg sync.WaitGroup
	single := func(p pendingSub) {
		frag, downs, nbytes, span, err := s.fetchSubquery(ctx, p.sq, traceID)
		results[p.idx] = subResult{frag: frag, downs: downs, bytes: nbytes, span: span, err: err}
		s.cacheFetched(&results[p.idx])
		finishLeader(p.idx)
	}

	var spanMu sync.Mutex
	var batchSpans []*trace.Span
	if s.cfg.DisableBatching {
		for _, p := range toFetch {
			wg.Add(1)
			go func(p pendingSub) { defer wg.Done(); single(p) }(p)
		}
	} else {
		// Group by resolved owner; singleton groups keep the plain
		// KindQuery path (a batch of one would only add envelope overhead).
		groups := map[string][]pendingSub{}
		var order []string
		for _, p := range toFetch {
			owner, err := s.cfg.DNS.Resolve(p.sq.Target)
			if err != nil {
				err = fmt.Errorf("site %s: resolving %s: %w", s.cfg.Name, p.sq.Target, err)
				results[p.idx] = subResult{err: err, span: errSpan(traceID, p.sq.Target.String(), p.sq.Query, err)}
				finishLeader(p.idx)
				continue
			}
			if _, ok := groups[owner]; !ok {
				order = append(order, owner)
			}
			groups[owner] = append(groups[owner], p)
		}
		for _, owner := range order {
			group := groups[owner]
			if len(group) == 1 {
				wg.Add(1)
				go func(p pendingSub) { defer wg.Done(); single(p) }(group[0])
				continue
			}
			for _, piece := range splitByByteCap(group, s.cfg.BatchByteCap) {
				if len(piece) == 1 {
					// A piece collapses to one entry when a single entry's
					// encoded size exceeds the byte cap (or the cap leaves a
					// remainder of one). A batch of one buys nothing, so fall
					// back to a plain — possibly oversized — KindQuery
					// message rather than a degenerate batch.
					wg.Add(1)
					go func(p pendingSub) { defer wg.Done(); single(p) }(piece[0])
					continue
				}
				wg.Add(1)
				go func(owner string, piece []pendingSub) {
					defer wg.Done()
					if sp := s.sendBatch(ctx, owner, piece, traceID, results, finishLeader); sp != nil {
						spanMu.Lock()
						batchSpans = append(batchSpans, sp)
						spanMu.Unlock()
					}
				}(owner, piece)
			}
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
					frag, downs, nbytes, span, err := s.fetchSubquery(ctx, w.sq, traceID)
					results[w.idx] = subResult{frag: frag, downs: downs, bytes: nbytes, span: span, err: err}
					s.cacheFetched(&results[w.idx])
					return
				}
				s.Metrics.Coalesced.Inc()
				var span *trace.Span
				if traceID != "" {
					// A marker span with this query's own trace ID; adopting
					// the leader's subtree would mix trace IDs in one tree.
					span = &trace.Span{TraceID: traceID, Site: s.cfg.Name, Query: w.sq.Query, Op: "coalesced"}
				}
				results[w.idx] = subResult{frag: w.fl.res.frag, downs: w.fl.res.downs, bytes: w.fl.res.bytes, span: span}
			case <-ctx.Done():
				err := fmt.Errorf("site %s: awaiting coalesced fetch: %w", s.cfg.Name, ctx.Err())
				results[w.idx] = subResult{err: err, span: errSpan(traceID, s.cfg.Name, w.sq.Query, err)}
			}
		}(w)
	}
	wg.Wait()
	return results, batchSpans
}

// splitByByteCap partitions one destination group into pieces whose encoded
// entry payloads stay under capBytes, preserving order. Every piece holds at
// least one entry, so a single oversized subquery still ships (the transport
// frame limit, not this cap, is the hard bound).
func splitByByteCap(group []pendingSub, capBytes int) [][]pendingSub {
	var pieces [][]pendingSub
	var cur []pendingSub
	size := 0
	for _, p := range group {
		b, err := json.Marshal(BatchEntry{Query: p.sq.Query})
		if err != nil {
			// A BatchEntry is a plain string struct; marshaling cannot fail.
			panic(fmt.Sprintf("site: encoding batch entry: %v", err))
		}
		n := len(b) + 1 // +1 for the JSON array separator
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

// sendBatch ships one KindBatch message carrying piece's subqueries to
// owner, decodes the per-entry answers into results, caches the healthy ones
// in one merge transaction, and then completes any flights those entries
// lead. It returns the remote hop's batch span (nil
// without tracing); per-entry spans ride as its children, so entry results
// carry no span of their own.
func (s *Site) sendBatch(ctx context.Context, owner string, piece []pendingSub, traceID string, results []subResult, finishLeader func(int)) *trace.Span {
	entries := make([]BatchEntry, len(piece))
	for i, p := range piece {
		entries[i] = BatchEntry{Query: p.sq.Query}
	}
	var payload []byte
	s.cpu.Do(func() {
		m := &Message{Kind: KindBatch, TraceID: traceID, Entries: entries}
		m.StampDeadline(ctx)
		payload = m.Encode()
	})
	s.Metrics.Subqueries.Add(int64(len(piece)))
	s.Metrics.SubqueryRPCs.Inc()
	s.Metrics.Batches.Inc()
	s.Metrics.BatchSize.Observe(float64(len(piece)))

	fail := func(err error) *trace.Span {
		for _, p := range piece {
			results[p.idx] = subResult{err: err, span: errSpan(traceID, owner, p.sq.Query, err)}
			finishLeader(p.idx)
		}
		if traceID == "" {
			return nil
		}
		return &trace.Span{TraceID: traceID, Site: owner, Op: "batch", Error: err.Error()}
	}

	respB, err := s.call.Call(ctx, owner, payload)
	if err != nil {
		return fail(fmt.Errorf("site %s: batch to %s: %w", s.cfg.Name, owner, err))
	}
	var resp *Message
	var derr error
	s.cpu.Do(func() {
		resp, derr = DecodeMessage(respB)
	})
	if derr == nil {
		if e := resp.AsError(); e != nil {
			derr = e
		}
	}
	if derr == nil && len(resp.Entries) != len(piece) {
		derr = fmt.Errorf("%d answer entries for %d subqueries", len(resp.Entries), len(piece))
	}
	if derr != nil {
		return fail(fmt.Errorf("site %s: batch answer from %s: %w", s.cfg.Name, owner, derr))
	}

	fetched := make([]*subResult, len(piece))
	for i, p := range piece {
		e := resp.Entries[i]
		r := &results[p.idx]
		fetched[i] = r
		if e.Status != BatchEntryOK {
			r.err = fmt.Errorf("site %s: batch entry from %s: %s", s.cfg.Name, owner, e.Error)
			continue
		}
		var frag *xmldb.Node
		var perr error
		s.cpu.Do(func() {
			frag, perr = xmldb.ParseString(e.Fragment)
		})
		if perr != nil {
			r.err = fmt.Errorf("site %s: batch entry from %s: %w", s.cfg.Name, owner, perr)
			continue
		}
		*r = subResult{frag: frag, downs: e.Unreachable, bytes: len(e.Fragment)}
	}
	// One cache commit for the whole answer, and only then do the entries'
	// flights retire.
	s.cacheFetched(fetched...)
	for _, p := range piece {
		finishLeader(p.idx)
	}
	return resp.Span
}

// handleBatch answers a KindBatch message: every entry evaluates through the
// normal query path against one pinned snapshot — a single atomic load, so
// all entries of a batch answer from the same consistent version — and the
// per-entry outcomes return in request order with individual statuses. One
// failed entry does not fail the batch; the sender splices the others and
// marks only the failed target unreachable, exactly as an individual
// subquery failure would.
func (s *Site) handleBatch(ctx context.Context, msg *Message, reqBytes int) *Message {
	t0 := time.Now()
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
					out[i] = BatchEntry{Kind: kind, Query: query, Status: BatchEntryError, Error: err.Error(),
						Span: errSpan(msg.TraceID, s.cfg.Name, query, err)}
					return
				}
				out[i] = BatchEntry{Kind: kind, Query: query, Status: BatchEntryOK, Agg: resp.Agg,
					Unreachable: resp.Unreachable, Truncated: resp.Truncated, Span: resp.Span}
				return
			}
			em := &Message{Kind: KindQuery, Query: query, TraceID: msg.TraceID}
			resp := s.handleQuery(ctx, em, len(query), snap)
			if err := resp.AsError(); err != nil {
				out[i] = BatchEntry{Query: query, Status: BatchEntryError, Error: err.Error(),
					Span: errSpan(msg.TraceID, s.cfg.Name, query, err)}
				return
			}
			out[i] = BatchEntry{Query: query, Status: BatchEntryOK, Fragment: resp.Fragment,
				Unreachable: resp.Unreachable, Span: resp.Span}
		}(i, e.Kind, e.Query)
	}
	wg.Wait()
	res := &Message{Kind: KindBatchResult, Entries: out}
	if msg.TraceID != "" {
		span := &trace.Span{TraceID: msg.TraceID, Site: s.cfg.Name, Op: "batch",
			BytesIn: reqBytes, Subqueries: len(msg.Entries)}
		for i := range out {
			if out[i].Span != nil {
				span.Children = append(span.Children, out[i].Span)
				out[i].Span = nil
			}
		}
		span.DurationUS = time.Since(t0).Microseconds()
		res.Span = span
	}
	return res
}
