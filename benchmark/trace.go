package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"irisnet/benchmark/stats"
)

// tracedPass produces the per-layer metrics: the load with the recorder
// attached, between two short untraced reference windows (their mean rate is
// the numerator of trace.overhead_ratio, so a host that speeds up or slows
// down across the run does not read as tracing cost), then the span analysis,
// the counter deltas and the replays. The clients, seed and wiring are the
// untraced pass's.
func (l *loader) tracedPass(res *runResult, mix opMix, warmup, timed time.Duration) (counts, error) {
	reference := func(warmup time.Duration) float64 {
		p := l.run(mix, warmup, timed/8)
		return stats.Ratio(float64(l.tally(p.start(), p.end()).ok()), p.seconds())
	}
	before := reference(warmup)
	rec := newRecorder(l.epoch, res.Config.Seed, l.h.spec.tcp)
	l.rec = rec
	l.h.net.rec.Store(rec)
	p := l.run(mix, warmup/2, timed/2)
	l.h.net.rec.Store(nil)
	l.rec = nil
	refRate := (before + reference(warmup/2)) / 2

	window := l.tally(p.start(), p.end())
	seconds := p.seconds()
	tracedRate := stats.Ratio(float64(window.ok()), seconds)
	first, last := p.first, p.last

	m := layerMetrics{}
	m.set("trace.overhead_ratio", stats.Ratio(refRate, tracedRate), "ratio")
	m.set("proc.cpu_util", stats.Ratio(last.cpu-first.cpu, seconds*float64(runtime.NumCPU())), "ratio")
	m.set("proc.gc_cycles", float64(last.gcs-first.gcs), "count")
	m.set("proc.gc_pause_ms_total", float64(last.gcPause-first.gcPause)/1e6, "ms")

	spans := rec.window(p.start(), p.end())
	sa := analyzeSpans(spans)
	sa.report(m)
	d := p.sitesAfter.minus(p.sitesBefore)
	l.reportCounters(m, d, window)
	res.Ledger = buildLedger(m, sa, d, l.replay(m, rec, d))
	res.Metrics = m

	name := fmt.Sprintf("spans-%s-seed%d.json", l.h.spec.name, res.Config.Seed)
	res.SpansFile = filepath.Join(res.Config.OutDir, name)
	if err := writeSpans(res.SpansFile, spans); err != nil {
		return window, err
	}
	return window, nil
}

// layerMetrics collects the per-layer metrics by name.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }
func (m layerMetrics) get(name string) float64                 { return m[name].Value }

// window returns the spans that lie wholly inside [from, to), renumbered so
// that parents still resolve; a span whose parent fell outside becomes a
// root.
func (r *recorder) window(from, to int64) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	renum := make(map[int64]int64, len(r.spans))
	var out []span
	for _, s := range r.spans {
		if s.End == 0 || s.Start < from || s.End >= to {
			continue
		}
		renum[s.ID] = int64(len(out) + 1)
		out = append(out, s)
	}
	for i := range out {
		out[i].ID = int64(i + 1)
		out[i].Parent = renum[out[i].Parent]
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// spanAnalysis is what the spans of one traced window add up to.
type spanAnalysis struct {
	ops, queryOps, updateOps int
	opUS, opSelfUS           []float64 // per client operation
	entryCalls, siteCalls    int
	callErrors               int
	callSelfUS               []float64
	bytesOut, bytesIn        float64              // summed over calls
	handleUS                 map[string][]float64 // by message kind
	handleSelfUS             map[string][]float64
}

// analyzeSpans computes durations and self times. A span's self time is its
// duration minus the part of it that its child spans cover.
func analyzeSpans(spans []span) *spanAnalysis {
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	sa := &spanAnalysis{handleUS: map[string][]float64{}, handleSelfUS: map[string][]float64{}}
	for _, s := range spans {
		dur := float64(s.End-s.Start) / 1e3
		self := dur - covered(spans, children[s.ID], s.Start, s.End)/1e3
		switch s.Kind {
		case spanOp:
			sa.ops++
			if s.Name == "query" {
				sa.queryOps++
			} else {
				sa.updateOps++
			}
			sa.opUS = append(sa.opUS, dur)
			sa.opSelfUS = append(sa.opSelfUS, self)
		case spanCall:
			if s.Parent != 0 && spans[s.Parent-1].Kind == spanHandle {
				sa.siteCalls++
			} else {
				sa.entryCalls++
			}
			if s.Err {
				sa.callErrors++
			}
			sa.callSelfUS = append(sa.callSelfUS, self)
			sa.bytesOut += float64(s.Out)
			sa.bytesIn += float64(s.In)
		case spanHandle:
			sa.handleUS[s.Name] = append(sa.handleUS[s.Name], dur)
			sa.handleSelfUS[s.Name] = append(sa.handleSelfUS[s.Name], self)
		}
	}
	return sa
}

// covered is the length of the union of the child intervals, clipped to
// [from, to], in nanoseconds.
func covered(spans []span, kids []int, from, to int64) float64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = from
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return float64(total)
}

// report writes the span-derived metrics. They are means over the traced
// window, so that they add up in the ledger.
func (sa *spanAnalysis) report(m layerMetrics) {
	calls := float64(sa.entryCalls + sa.siteCalls)
	m.set("service.self_us", stats.Mean(sa.opSelfUS), "us")
	m.set("transport.entry_calls_per_op", stats.Ratio(float64(sa.entryCalls), float64(sa.ops)), "count")
	m.set("transport.site_calls_per_op", stats.Ratio(float64(sa.siteCalls), float64(sa.ops)), "count")
	m.set("transport.bytes_out_per_call", stats.Ratio(sa.bytesOut, calls), "B")
	m.set("transport.bytes_in_per_call", stats.Ratio(sa.bytesIn, calls), "B")
	m.set("transport.call_self_us", stats.Mean(sa.callSelfUS), "us")
	m.set("transport.call_errors", float64(sa.callErrors), "count")
	m.set("site.handle_query_us", stats.Mean(sa.handleUS["query"]), "us")
	m.set("site.handle_query_self_us", stats.Mean(sa.handleSelfUS["query"]), "us")
	m.set("site.handle_batch_us", stats.Mean(sa.handleUS["batch"]), "us")
	m.set("site.handle_update_us", stats.Mean(sa.handleUS["update"]), "us")
}

// reportCounters writes the metrics that are deltas of the sites' exported
// counters over the traced window.
func (l *loader) reportCounters(m layerMetrics, d siteCounters, window counts) {
	queries := float64(len(window.queryMS))
	m.set("site.cache_hit_ratio", stats.Ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses)), "ratio")
	m.set("site.subqueries_per_query", stats.Ratio(float64(d.subqueries), queries), "count")
	m.set("site.subquery_rpcs_per_query", stats.Ratio(float64(d.subqueryRPCs), queries), "count")
	m.set("site.coalesced_per_query", stats.Ratio(float64(d.coalesced), queries), "count")
	m.set("site.evictions_per_query", stats.Ratio(float64(d.evictions), queries), "count")
	m.set("site.retries", float64(d.retries), "count")
	m.set("site.deadline_hits", float64(d.deadlineHits), "count")
	m.set("site.partial_answers", float64(d.partialAnswers), "count")
	m.set("site.cache_bytes_end", float64(d.cacheBytes), "B")
	m.set("site.checkpoints", float64(d.checkpoints), "count")
	m.set("site.checkpoint_ms_mean", stats.Ratio(d.checkpointSeconds*1000, float64(d.checkpoints)), "ms")
	m.set("wal.bytes_per_update", stats.Ratio(float64(d.walBytes), float64(d.updates)), "B")
	m.set("wal.appends_per_update", stats.Ratio(float64(d.walAppends), float64(d.updates)), "count")
	m.set("wal.fsyncs_per_update", stats.Ratio(float64(d.walFsyncs), float64(d.updates)), "count")
	var hits, misses int64
	for _, c := range l.clients {
		h, mi := c.fe.DNS.CacheStats()
		hits, misses = hits+h, misses+mi
	}
	m.set("naming.cache_hit_ratio", stats.Ratio(float64(hits), float64(hits+misses)), "ratio")
}
