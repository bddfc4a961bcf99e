package site

import (
	"context"
	"fmt"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/qeg"
	"irisnet/internal/xpath"
)

// In-network partial aggregation (DESIGN.md §14). An aggregate query
// fn(/path) arriving at a site is answered in one of two modes:
//
//   - Pushdown: when the inner query is in the decomposable class
//     (qeg.DecomposableAggregate) and this site's subqueries target
//     pairwise-disjoint subtrees (qeg.AggregateTargetsDisjoint), the site
//     folds its own matches into a partial state with the indexed local
//     evaluation path and sends each addressed site the same pinned
//     subquery wrapped in the aggregate function. Every hop down the
//     gather path repeats the decision, so the raw fragments never travel:
//     each link carries one AggPayload of a few dozen bytes.
//
//   - Fallback: anything outside the class runs the ordinary raw gather
//     (hop.gather on the inner query) and aggregates the assembled
//     fragment locally — the definitional semantics, byte-identical to
//     computing over a raw answer at the client. The reply upstream is
//     still a compact partial, so even a fallback hop saves the upstream
//     links the fragment bytes.
//
// Either way the site answers KindAggregateResult with the combined
// partial, the roll-up staleness (max over contributing partials), the
// unreachable-subtree list and the truncation marker, and caching sites
// remember complete answers in the summary cache (summary.go).

// aggAnswer is what an aggregate subrequest fetches: the answering site's
// combined partial state and the roll-ups that travel with it.
type aggAnswer struct {
	partial   qeg.AggPartial
	ageMax    float64
	truncated bool
}

// decodeAgg is the aggregate family's payload decoder (dispatch.go).
func decodeAgg(e *BatchEntry) (aggAnswer, error) {
	if e.Agg == nil {
		return aggAnswer{}, fmt.Errorf("aggregate answer carries no partial state")
	}
	return aggAnswer{partial: e.Agg.Partial, ageMax: e.Agg.AgeMaxSec, truncated: e.Truncated}, nil
}

// handleAggregate answers a KindAggregate message. pinned has the same
// meaning as in handleQuery: batch entries evaluate against one shared
// snapshot; nil loads the latest published version.
func (s *Site) handleAggregate(ctx context.Context, msg *Message, reqBytes int, pinned *fragment.Store) *Message {
	aggQ, isAgg, aggErr := xpath.ParseAggregate(msg.Query)
	if aggErr != nil {
		return errorMessage(aggErr)
	}
	if !isAgg {
		return errorMessage(fmt.Errorf("site %s: %q is not an aggregate query", s.cfg.Name, msg.Query))
	}
	inner := aggQ.InnerSource()

	// The aggregate follows its inner path's subtree to a new owner, exactly
	// as a raw query would.
	ctx, h, forwarded := s.beginHop(ctx, msg, "aggregate", inner, reqBytes)
	if forwarded != nil {
		return forwarded
	}
	now := s.cfg.Clock()

	// Summary cache: a fresh-enough cached combined partial answers the
	// query without any evaluation or communication. Bypass reads under
	// CacheBypass, like the raw cache.
	if s.summaries != nil && !s.cfg.CacheBypass {
		if partial, age, ok := s.summaries.get(msg.Query, now); ok {
			s.Metrics.SummaryHits.Inc()
			s.Metrics.CacheHits.Inc()
			s.Metrics.AnswerStaleness.Observe(age)
			res := &Message{Kind: KindAggregateResult,
				Agg: &AggPayload{Fn: aggQ.Fn.String(), Partial: partial, AgeMaxSec: age}}
			if h.span != nil {
				h.span.DurationUS = time.Since(h.t0).Microseconds()
				h.span.CacheHit = true
				finishSpan(h.span, h.stats)
				res.Span = h.span
			}
			return res
		}
	}

	plans, err := h.compile(inner)
	if err != nil {
		return errorMessage(err)
	}

	var partial qeg.AggPartial
	var ageMax float64
	decomposed := qeg.DecomposableAggregate(plans)
	if decomposed {
		snap := pinned
		if snap == nil {
			snap = s.state.Load().store
		}
		h.prov = *qeg.NewProvenance(now)
		res, err := h.Evaluate(snap, plans[0], qeg.Options{Now: s.cfg.Clock, IgnoreCached: s.cfg.CacheBypass, Prov: &h.prov})
		if err != nil {
			return errorMessage(err)
		}
		if !qeg.AggregateTargetsDisjoint(res.Fragment, res.Subqueries) {
			// Overlapping targets would double-count; this query takes the
			// raw path at this site (downstream sites decide for themselves).
			decomposed = false
		} else {
			var localBytes int
			s.cpu.Do(func() {
				partial, err = qeg.ComputeAggregate(res.Fragment, inner, s.cfg.Clock)
				if err == nil {
					// What the raw path would have shipped upstream from this
					// site's own data — the per-hop wire saving (the links
					// above save the downstream fragments too; each hop
					// accounts its own, so federation-wide totals compose).
					localBytes = len(res.Fragment.StringSized(res.Nodes))
				}
			})
			if err != nil {
				return errorMessage(fmt.Errorf("site %s: aggregating local matches: %w", s.cfg.Name, err))
			}
			ageMax = h.prov.AgeMax
			if len(res.Subqueries) > 0 {
				// Each addressed site gets the same pinned, self-routing
				// subquery wrapped in the aggregate function.
				reqs := make([]qeg.Subquery, len(res.Subqueries))
				for i, sq := range res.Subqueries {
					reqs[i] = qeg.Subquery{Target: sq.Target, Query: qeg.AggregateSubquery(aggQ.Fn, sq)}
				}
				h.unreachable = map[string]bool{}
				for i, r := range dispatch(ctx, h, s.aggKind, reqs) {
					if r.err != nil {
						// Partial answer: mark just this subtree unreachable,
						// as the raw path would.
						h.unreachable[res.Subqueries[i].Target.Key()] = true
						continue
					}
					partial = partial.Combine(r.val.partial)
					if r.val.ageMax > ageMax {
						ageMax = r.val.ageMax
					}
					h.truncated = h.truncated || r.val.truncated
					for _, d := range r.downs {
						h.unreachable[d] = true
					}
				}
			}
			s.Metrics.AggregatePushdowns.Inc()
			s.Metrics.AnswerStaleness.Observe(ageMax)
			h.freshness = freshnessReport(&h.prov, 0)
			h.freshness.MaxAgeSec = ageMax // roll up the remote partials' staleness
			if localBytes > 0 {
				s.Metrics.GatherBytesSaved.Add(int64(localBytes))
			}
		}
	}

	if !decomposed {
		// Fallback: raw gather over the inner query, aggregate the assembled
		// answer here.
		ans, err := h.gather(ctx, inner, plans, pinned)
		if err != nil {
			return errorMessage(err)
		}
		var rawBytes int
		s.cpu.Do(func() {
			partial, err = qeg.ComputeAggregate(ans.Root, inner, s.cfg.Clock)
			rawBytes = len(ans.Root.StringSized(ans.Size()))
		})
		if err != nil {
			return errorMessage(err)
		}
		ageMax = h.freshness.MaxAgeSec
		s.Metrics.AggregateFallbacks.Inc()
		// Even a fallback hop ships a scalar upstream instead of the
		// assembled fragment: the saving on the upstream link is exact.
		s.Metrics.GatherBytesSaved.Add(int64(rawBytes))
	}

	// Cache the combined answer — complete answers only, and only when every
	// consistency predicate's freshness margin is measurable (otherwise a
	// later hit could not be gated).
	if s.summaries != nil && !h.truncated && len(h.unreachable) == 0 {
		if forms, ok := consForms(plans); ok {
			if scope, err := qeg.LCAPath(inner); err == nil {
				s.summaries.put(msg.Query, scope, partial, ageMax, now, forms)
			}
		}
	}

	return h.finish(ctx, &Message{Kind: KindAggregateResult,
		Agg: &AggPayload{Fn: aggQ.Fn.String(), Partial: partial, AgeMaxSec: ageMax}}, 0)
}

// consForms collects the compiled freshness forms of every consistency
// predicate across the plans; ok is false when any predicate is outside the
// compilable subset (its margin cannot be measured, so answers must not be
// summary-cached).
func consForms(plans []*qeg.Plan) ([]*xpath.FreshnessForm, bool) {
	var forms []*xpath.FreshnessForm
	for _, p := range plans {
		for _, st := range p.Steps {
			for i := range st.ConsPreds {
				if i >= len(st.ConsForms) || st.ConsForms[i] == nil {
					return nil, false
				}
				forms = append(forms, st.ConsForms[i])
			}
		}
	}
	return forms, true
}
