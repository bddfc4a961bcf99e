package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"irisnet/benchmark/stats"
	"irisnet/internal/cluster"
	"irisnet/internal/fragment"
	"irisnet/internal/qeg"
	"irisnet/internal/site"
	"irisnet/internal/transport"
	"irisnet/internal/wal"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

// measure calls fn(i) for i in [0, n) on this goroutine, with the clients
// stopped, and returns the mean microseconds and mean heap allocations per
// call.
func measure(n int, fn func(i int)) (us, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / 1e3 / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// answered is one recorded client query with its answer fragment.
type answered struct{ query, frag string }

// replay feeds what the traced pass recorded through each layer's exported
// functions in tight single-threaded loops. A layer the workload never
// reached has nothing recorded, and its replay metrics read zero. It returns
// the mean size of a recorded answer fragment in KB, for the ledger.
func (l *loader) replay(m layerMetrics, rec *recorder, d siteCounters) float64 {
	rec.mu.Lock()
	entry := append([]exchange(nil), rec.entry...)
	sub := append([]exchange(nil), rec.sub...)
	rec.mu.Unlock()
	clock := func() float64 { return float64(time.Now().UnixNano()) / 1e9 }
	fe := l.clients[0].fe

	// Decode every exchange once: the messages feed the site codec loops,
	// the queries and fragments feed qeg, xpath, xmldb and fragment.
	var payloads [][]byte
	var msgs []*site.Message
	var answers []answered // client queries with their answer fragments
	var subFrags []string  // sub-answer fragments a caching site merged
	decode := func(ex exchange) (req, resp *site.Message, ok bool) {
		req, err1 := site.DecodeMessage(ex.req)
		resp, err2 := site.DecodeMessage(ex.resp)
		if err1 != nil || err2 != nil {
			return nil, nil, false
		}
		payloads = append(payloads, ex.req, ex.resp)
		msgs = append(msgs, req, resp)
		return req, resp, true
	}
	for _, ex := range entry {
		if req, resp, ok := decode(ex); ok && req.Kind == site.KindQuery && resp.Fragment != "" {
			answers = append(answers, answered{req.Query, resp.Fragment})
		}
	}
	for _, ex := range sub {
		_, resp, ok := decode(ex)
		if !ok {
			continue
		}
		if resp.Fragment != "" {
			subFrags = append(subFrags, resp.Fragment)
		}
		for _, e := range resp.Entries {
			if e.Fragment != "" {
				subFrags = append(subFrags, e.Fragment)
			}
		}
	}
	allFrags := append([]string(nil), subFrags...)
	for _, a := range answers {
		allFrags = append(allFrags, a.frag)
	}

	// service and naming.
	if len(answers) > 0 {
		us, _ := measure(l.iters, func(i int) { _, _, _ = fe.RouteOf(answers[i%len(answers)].query) })
		m.set("service.route_us", us, "us")
	} else {
		m.set("service.route_us", 0, "us")
	}
	spaces := l.h.db.SpacePaths
	us, _ := measure(l.iters, func(i int) { _, _ = fe.DNS.Resolve(spaces[i%len(spaces)]) })
	m.set("naming.resolve_us", us, "us")

	// transport: an echo handler on a network of the workload's own kind.
	for _, size := range []struct {
		name  string
		bytes int
	}{{"transport.echo_rtt_us_256B", 256}, {"transport.echo_rtt_us_16KB", 16 << 10}} {
		m.set(size.name, l.echoRTT(size.bytes), "us")
	}

	// site: the message codec on the recorded payloads.
	if len(msgs) > 0 {
		us, allocs := measure(l.iters, func(i int) { _, _ = site.DecodeMessage(payloads[i%len(payloads)]) })
		m.set("site.decode_us_per_msg", us, "us")
		m.set("site.decode_allocs_per_msg", allocs, "count")
		us, _ = measure(l.iters, func(i int) { _ = msgs[i%len(msgs)].Encode() })
		m.set("site.encode_us_per_msg", us, "us")
	} else {
		m.set("site.decode_us_per_msg", 0, "us")
		m.set("site.decode_allocs_per_msg", 0, "count")
		m.set("site.encode_us_per_msg", 0, "us")
	}

	l.replayQueries(m, answers, clock)
	responseKB := l.replayXML(m, allFrags)
	l.replayFragment(m, subFrags, clock)
	l.replayWAL(m, d)
	return responseKB
}

// echoRTT times a round trip of the given payload size to an echo handler.
func (l *loader) echoRTT(size int) float64 {
	var net transport.Network
	if l.h.spec.tcp {
		tcp := transport.NewTCPNet(map[string]string{"echo": "127.0.0.1:0"})
		defer tcp.Close()
		net = tcp
	} else {
		net = transport.NewSimNet(transport.SimConfig{})
	}
	echo := func(_ context.Context, p []byte) ([]byte, error) { return p, nil }
	if err := net.Register("echo", echo); err != nil {
		return 0
	}
	defer net.Unregister("echo")
	payload := make([]byte, size)
	us, _ := measure(l.iters, func(int) { _, _ = net.Call("echo", payload) })
	return us
}

// replayQueries measures xpath and qeg on the recorded client queries, each
// evaluated against a sealed copy of the store of the site it enters at.
func (l *loader) replayQueries(m layerMetrics, answers []answered, clock func() float64) {
	names := []string{"xpath.parse_us", "qeg.compile_warm_us", "qeg.compile_cold_us", "qeg.evaluate_us", "qeg.extract_us"}
	if len(answers) == 0 {
		for _, n := range names {
			m.set(n, 0, "us")
		}
		m.set("qeg.evaluate_allocs", 0, "count")
		return
	}
	fe := l.clients[0].fe
	schema := l.h.db.Schema
	n := len(answers)
	us, _ := measure(l.iters, func(i int) { _, _ = xpath.Parse(answers[i%n].query) })
	m.set("xpath.parse_us", us, "us")

	warm := qeg.NewCompiler(schema, false)
	stores := map[string]*fragment.Store{}
	plans := make([][]*qeg.Plan, n)
	at := make([]*fragment.Store, n)
	for i, a := range answers {
		plans[i], _ = warm.Compile(a.query)
		entry, _, err := fe.RouteOf(a.query)
		if err != nil {
			continue
		}
		if stores[entry] == nil {
			stores[entry] = l.h.sites[entry].StoreSnapshot().Seal()
			stores[entry].Index()
		}
		at[i] = stores[entry]
	}
	us, _ = measure(l.iters, func(i int) { _, _ = warm.Compile(answers[i%n].query) })
	m.set("qeg.compile_warm_us", us, "us")
	us, _ = measure(l.iters, func(i int) { _, _ = qeg.NewCompiler(schema, false).Compile(answers[i%n].query) })
	m.set("qeg.compile_cold_us", us, "us")
	us, allocs := measure(l.iters, func(i int) {
		if at[i%n] == nil {
			return
		}
		for _, p := range plans[i%n] {
			_, _ = qeg.Evaluate(at[i%n], p, qeg.Options{Now: clock})
		}
	})
	m.set("qeg.evaluate_us", us, "us")
	m.set("qeg.evaluate_allocs", allocs, "count")

	frags := make([]*xmldb.Node, n)
	for i, a := range answers {
		frags[i], _ = xmldb.ParseString(a.frag)
	}
	us, _ = measure(l.iters, func(i int) {
		if frags[i%n] != nil {
			_, _, _ = qeg.ExtractAnswerFull(frags[i%n], answers[i%n].query, clock, qeg.ExtractOptions{})
		}
	})
	m.set("qeg.extract_us", us, "us")
}

// replayXML measures xmldb's parser and serializer per KB of the recorded
// answer fragments, and returns their mean size in KB.
func (l *loader) replayXML(m layerMetrics, frags []string) float64 {
	if len(frags) == 0 {
		m.set("xmldb.parse_us_per_kb", 0, "us")
		m.set("xmldb.parse_allocs_per_kb", 0, "count")
		m.set("xmldb.serialize_us_per_kb", 0, "us")
		return 0
	}
	n := len(frags)
	iters := l.iters
	kb := 0.0
	for i := 0; i < iters; i++ {
		kb += float64(len(frags[i%n])) / 1024
	}
	us, allocs := measure(iters, func(i int) { _, _ = xmldb.ParseString(frags[i%n]) })
	m.set("xmldb.parse_us_per_kb", us*float64(iters)/kb, "us")
	m.set("xmldb.parse_allocs_per_kb", allocs*float64(iters)/kb, "count")
	nodes := make([]*xmldb.Node, n)
	for i, f := range frags {
		nodes[i], _ = xmldb.ParseString(f)
	}
	us, _ = measure(iters, func(i int) {
		if nodes[i%n] != nil {
			_ = nodes[i%n].String()
		}
	})
	m.set("xmldb.serialize_us_per_kb", us*float64(iters)/kb, "us")
	return kb / float64(iters)
}

// replayFragment measures the copy-on-write commits: merging a recorded
// sub-answer into, and evicting a cached unit from, a sealed copy of
// root-site's store; applying an update to a sealed copy of a neighborhood
// site's store; and the first Index() after a commit (after the merge commit
// where sub-answers were recorded, which rebuilds the index; otherwise after
// the update commit, which derives it).
func (l *loader) replayFragment(m layerMetrics, subFrags []string, clock func() float64) {
	owner := l.h.sites[cluster.NBSiteName(0, 0)]
	base := owner.StoreSnapshot().Seal()
	base.Index()
	var spaces []xmldb.IDPath
	for _, p := range l.h.db.SpacePaths {
		if owner.Owns(p) {
			spaces = append(spaces, p)
		}
	}
	var commitNS, indexNS int64
	for i := 0; i < l.iters; i++ {
		t0 := time.Now()
		w := base.Begin()
		_ = w.ApplyUpdate(spaces[i%len(spaces)], fieldsYes, nil, clock())
		st := w.Commit()
		t1 := time.Now()
		st.Index()
		commitNS += int64(t1.Sub(t0))
		indexNS += int64(time.Since(t1))
	}
	m.set("fragment.update_commit_us", float64(commitNS)/1e3/float64(l.iters), "us")
	m.set("fragment.index_after_commit_us", float64(indexNS)/1e3/float64(l.iters), "us")

	cache := l.h.sites[cluster.RootSiteName].StoreSnapshot().Seal()
	cache.Index()
	m.set("fragment.merge_commit_us", 0, "us")
	if len(subFrags) > 0 {
		// MergeFragment may adopt nodes of the fragment it is given, so every
		// iteration gets a parse of its own, made outside the timed part.
		commitNS, indexNS = 0, 0
		done := 0
		for i := 0; i < l.iters; i++ {
			frag, err := xmldb.ParseString(subFrags[i%len(subFrags)])
			if err != nil {
				continue
			}
			t0 := time.Now()
			w := cache.Begin()
			if w.MergeFragment(frag) != nil {
				continue
			}
			st := w.Commit()
			t1 := time.Now()
			st.Index()
			commitNS += int64(t1.Sub(t0))
			indexNS += int64(time.Since(t1))
			done++
		}
		if done > 0 {
			m.set("fragment.merge_commit_us", float64(commitNS)/1e3/float64(done), "us")
			m.set("fragment.index_after_commit_us", float64(indexNS)/1e3/float64(done), "us")
		}
	}

	var cached []xmldb.IDPath
	var walk func(n *xmldb.Node, p xmldb.IDPath)
	walk = func(n *xmldb.Node, p xmldb.IDPath) {
		if fragment.StatusOf(n) == fragment.StatusComplete {
			cached = append(cached, p)
		}
		for _, c := range n.IDableChildren() {
			walk(c, p.Child(c.Name, c.ID()))
		}
	}
	walk(cache.Root, xmldb.IDPath{{Name: cache.Root.Name, ID: cache.Root.ID()}})
	m.set("fragment.evict_commit_us", 0, "us")
	if len(cached) > 0 {
		us, _ := measure(l.iters, func(i int) {
			w := cache.Begin()
			_ = w.EvictLocalInfo(cached[i%len(cached)])
			w.Commit()
		})
		m.set("fragment.evict_commit_us", us, "us")
	}
}

// replayWAL appends and syncs records of the mean size the sites logged,
// under the same strict fsync policy, in a log of its own beside theirs. On
// a workload without durability the sites' WAL counters must not have moved,
// and the replay metrics read zero.
func (l *loader) replayWAL(m layerMetrics, d siteCounters) {
	m.set("wal.append_us", 0, "us")
	m.set("wal.sync_us", 0, "us")
	if !l.h.spec.durable || d.walAppends == 0 {
		return
	}
	const frameHeader = 16 // wal: 4B length + 8B LSN + 4B CRC
	size := int(d.walBytes/d.walAppends) - frameHeader
	if size < 1 {
		size = 1
	}
	dir := filepath.Join(l.h.dataDir, "replay-wal")
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	defer log.Close()
	payload := make([]byte, size)
	var appendNS, syncNS int64
	for i := 0; i < l.iters; i++ {
		t0 := time.Now()
		lsn, err := log.Append(payload)
		t1 := time.Now()
		if err != nil || log.Sync(lsn) != nil {
			return
		}
		appendNS += int64(t1.Sub(t0))
		syncNS += int64(time.Since(t1))
	}
	m.set("wal.append_us", float64(appendNS)/1e3/float64(l.iters), "us")
	m.set("wal.sync_us", float64(syncNS)/1e3/float64(l.iters), "us")
}

// ledgerRow is one line of the cost ledger: what one call into a layer costs
// in the replay, how many such calls one operation made in the traced
// window, and their product.
type ledgerRow struct {
	Layer   string  `json:"layer"`
	UnitUS  float64 `json:"unit_us"`
	PerOp   float64 `json:"per_op"`
	USPerOp float64 `json:"us_per_op"`
}

// buildLedger multiplies each layer's replay cost by the calls per operation
// the traced window measured, and sets ledger.coverage (their sum over the
// mean operation latency of the traced pass) and site.other_us (what the sum
// leaves unexplained: scheduling, waiting, gather bookkeeping, the handler's
// own logic). Coverage is reported, never gated.
func buildLedger(m layerMetrics, sa *spanAnalysis, d siteCounters, responseKB float64) []ledgerRow {
	ops := float64(sa.ops)
	per := func(n float64) float64 { return stats.Ratio(n, ops) }
	calls := float64(sa.entryCalls + sa.siteCalls)
	// The echo round trip at the mean payload size, interpolated between the
	// two sizes measured.
	meanPayload := (m.get("transport.bytes_out_per_call") + m.get("transport.bytes_in_per_call")) / 2
	small, large := m.get("transport.echo_rtt_us_256B"), m.get("transport.echo_rtt_us_16KB")
	echo := small + (large-small)*(meanPayload-256)/float64(16<<10-256)
	if echo < small {
		echo = small
	}
	evals := float64(d.queries) // queries and subqueries the sites evaluated
	kb := responseKB * calls
	rows := []ledgerRow{
		{Layer: "service.route", UnitUS: m.get("service.route_us"), PerOp: per(float64(sa.queryOps))},
		{Layer: "naming.resolve", UnitUS: m.get("naming.resolve_us"), PerOp: per(float64(sa.updateOps))},
		{Layer: "site.encode", UnitUS: m.get("site.encode_us_per_msg"), PerOp: per(2 * calls)},
		{Layer: "site.decode", UnitUS: m.get("site.decode_us_per_msg"), PerOp: per(2 * calls)},
		{Layer: "qeg.compile_warm", UnitUS: m.get("qeg.compile_warm_us"), PerOp: per(evals)},
		{Layer: "qeg.evaluate", UnitUS: m.get("qeg.evaluate_us"), PerOp: per(evals)},
		{Layer: "xmldb.serialize_kb", UnitUS: m.get("xmldb.serialize_us_per_kb"), PerOp: per(kb)},
		{Layer: "xmldb.parse_kb", UnitUS: m.get("xmldb.parse_us_per_kb"), PerOp: per(kb)},
		{Layer: "qeg.extract", UnitUS: m.get("qeg.extract_us"), PerOp: per(float64(sa.queryOps))},
		{Layer: "fragment.merge_commit", UnitUS: m.get("fragment.merge_commit_us"), PerOp: per(float64(d.cacheMisses))},
		{Layer: "fragment.evict_commit", UnitUS: m.get("fragment.evict_commit_us"), PerOp: per(float64(d.evictions))},
		{Layer: "fragment.update_commit", UnitUS: m.get("fragment.update_commit_us"), PerOp: per(float64(d.updates))},
		{Layer: "wal.append", UnitUS: m.get("wal.append_us"), PerOp: per(float64(d.walAppends))},
		{Layer: "wal.sync", UnitUS: m.get("wal.sync_us"), PerOp: per(float64(d.walFsyncs))},
		{Layer: "transport.echo_rtt", UnitUS: echo, PerOp: per(calls)},
	}
	sum := 0.0
	for i := range rows {
		rows[i].USPerOp = rows[i].UnitUS * rows[i].PerOp
		sum += rows[i].USPerOp
	}
	meanOp := stats.Mean(sa.opUS)
	m.set("ledger.coverage", stats.Ratio(sum, meanOp), "ratio")
	m.set("site.other_us", meanOp-sum, "us")
	return rows
}
