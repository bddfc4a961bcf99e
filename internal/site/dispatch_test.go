package site

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/qeg"
	"irisnet/internal/trace"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// deployShared is deployCfg with every block of a city owned by one block
// site ("blocks-<city>") while the city site keeps the city and
// neighborhood nodes — the architecture-2 shape. A query over a whole
// neighborhood then emits one subquery per missing block subtree, all bound
// for the same destination: a real multi-entry batch. (Sibling blocks named
// in one predicate are no use here: the planner generalizes them into a
// single subquery.)
func deployShared(t *testing.T, caching bool, sim transport.SimConfig, mut func(*Config)) *testDeployment {
	t.Helper()
	cfg := workload.DBConfig{Cities: 2, Neighborhoods: 2, Blocks: 3, Spaces: 3, Seed: 5}
	db := workload.Build(cfg)
	assign := fragment.NewAssignment("root-site")
	for c := 0; c < cfg.Cities; c++ {
		assign.Assign(db.CityPath(c), "city-"+workload.CityName(c))
		for n := 0; n < cfg.Neighborhoods; n++ {
			for b := 0; b < cfg.Blocks; b++ {
				assign.Assign(db.BlockPath(c, n, b), "blocks-"+workload.CityName(c))
			}
		}
	}
	d := &testDeployment{
		net:      transport.NewSimNet(sim),
		registry: naming.NewRegistry(),
		sites:    map[string]*Site{},
		db:       db,
		assign:   assign,
		clock:    func() float64 { return 1000 },
	}
	stores, owned, err := fragment.Partition(db.Doc, assign)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range assign.Sites() {
		sc := Config{
			Name:     name,
			Service:  workload.Service,
			Net:      d.net,
			DNS:      naming.NewClient(d.registry, workload.Service, time.Hour, nil),
			Registry: d.registry,
			Schema:   db.Schema,
			Caching:  caching,
			CPUSlots: 1,
			Clock:    d.clock,
		}
		if mut != nil {
			mut(&sc)
		}
		s := New(sc, workload.RootName, workload.RootID)
		// Recover is Load unless mut gave the site a DataDir.
		if _, err := s.Recover(stores[name], owned[name]); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		d.sites[name] = s
	}
	d.registry.RegisterSubtree(db.Doc, workload.Service, assign.OwnerOf)
	t.Cleanup(func() {
		for _, s := range d.sites {
			s.Stop()
		}
	})
	return d
}

// request sends one query-plane message (KindQuery or KindAggregate) and
// returns the whole result message, failing the test on an error answer.
func (d *testDeployment) request(t *testing.T, siteName, kind, q string) *Message {
	t.Helper()
	msg := &Message{Kind: kind, Query: q}
	respB, err := d.net.Call(siteName, msg.Encode())
	if err != nil {
		t.Fatalf("%s to %s: %v", kind, siteName, err)
	}
	resp, err := DecodeMessage(respB)
	if err != nil {
		t.Fatal(err)
	}
	if e := resp.AsError(); e != nil {
		t.Fatalf("%s %q at %s: %v", kind, q, siteName, e)
	}
	return resp
}

// queryRaw is request for a raw query (the raw fragment text matters for
// the byte-identical splitting test).
func (d *testDeployment) queryRaw(t *testing.T, siteName, q string) *Message {
	t.Helper()
	return d.request(t, siteName, KindQuery, q)
}

// subrequestKinds are the two families the one dispatcher serves. Each
// dispatch test runs over both: wrap turns a raw path query into the
// family's request, and body is the part of an answer that must not depend
// on how the subrequests travelled.
var subrequestKinds = []struct {
	name, kind string
	wrap       func(path string) string
	body       func(*Message) string
}{
	{"raw", KindQuery,
		func(path string) string { return path + "[available='yes']" },
		func(m *Message) string { return m.Fragment }},
	{"aggregate", KindAggregate,
		func(path string) string { return "sum(" + path + "/price)" },
		func(m *Message) string { return fmt.Sprintf("%+v", *m.Agg) }},
}

// TestSiteCoalescingConcurrentColdQueries extends the
// TestSiteCachingReducesSubqueries guarantee to the concurrent case: N
// identical cold requests racing into a caching site must cost exactly as
// many upstream fetches as one request alone — the first leads the flight,
// the rest join it (or hit the cache it populates). Raw queries and
// aggregates share the mechanism, so both are held to it.
func TestSiteCoalescingConcurrentColdQueries(t *testing.T) {
	sim := transport.SimConfig{Latency: 3 * time.Millisecond}
	cityName := "city-" + workload.CityName(0)
	for _, k := range subrequestKinds {
		t.Run(k.name, func(t *testing.T) {
			// Baseline: one cold request on its own deployment.
			base := deployCfg(t, true, sim, nil)
			q := k.wrap(base.db.BlockPath(0, 0, 0).String() + "/parkingSpace")
			want := k.body(base.request(t, cityName, k.kind, q))
			baseline := base.sites[cityName].Metrics.Subqueries.Value()
			if baseline != 1 {
				t.Fatalf("one cold request issued %d upstream subrequests, want 1", baseline)
			}

			// Same request, 8 ways concurrent, on a fresh deployment.
			d := deployCfg(t, true, sim, nil)
			city := d.sites[cityName]
			const workers = 8
			got := make([]string, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					got[w] = k.body(d.request(t, cityName, k.kind, q))
				}(w)
			}
			wg.Wait()

			if n := city.Metrics.Subqueries.Value(); n != baseline {
				t.Fatalf("%d concurrent identical requests issued %d upstream subrequests, want %d",
					workers, n, baseline)
			}
			// Every request after the leader either joined the flight or hit
			// the cache the leader populated.
			coal, hits := city.Metrics.Coalesced.Value(), city.Metrics.CacheHits.Value()
			if coal+hits != workers-1 {
				t.Fatalf("coalesced=%d cacheHits=%d, want them to cover the other %d requests",
					coal, hits, workers-1)
			}
			// Correctness preserved under coalescing.
			for w := range got {
				if got[w] != want {
					t.Fatalf("coalesced answer %d differs from the lone one:\n got %s\nwant %s", w, got[w], want)
				}
			}
		})
	}
}

// TestCoalescedFollowerFallsBack: a follower whose flight fails for the
// leader's reasons alone (here the leader's context is canceled while its
// fetch hangs on a partitioned owner) re-fetches on its own, as a one-entry
// batch to the owner, and returns the full answer.
func TestCoalescedFollowerFallsBack(t *testing.T) {
	d := deploy(t, true)
	cityName := "city-" + workload.CityName(0)
	ownerName := d.assign.OwnerOf(d.db.BlockPath(0, 0, 0))
	city := d.sites[cityName]
	q := d.db.BlockQuery(0, 0, 0)
	payload := (&Message{Kind: KindQuery, Query: q}).Encode()
	d.net.Partition(ownerName)

	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		city.Handle(leaderCtx, payload)
	}()
	waitFor(t, "the leader's fetch", func() bool { return city.Metrics.SubqueryRPCs.Value() == 1 })

	followerDone := make(chan []byte)
	go func() {
		resp, _ := city.Handle(context.Background(), payload)
		followerDone <- resp
	}()
	waitFor(t, "the follower's hop", func() bool { return city.Metrics.Queries.Value() == 2 })
	// The follower's hop has begun; give it time to join the flight, which
	// is all that stands between it and its wait.
	time.Sleep(50 * time.Millisecond)
	cancel()
	<-leaderDone
	d.net.Heal(ownerName)

	resp, err := DecodeMessage(<-followerDone)
	if err != nil {
		t.Fatal(err)
	}
	if e := resp.AsError(); e != nil || len(resp.Unreachable) > 0 {
		t.Fatalf("follower answer: err=%v unreachable=%v", e, resp.Unreachable)
	}
	frag, err := xmldb.ParseString(resp.Fragment)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := extracted(t, frag, q, d.clock), centralAnswer(t, d, q); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("follower answer:\n got %v\nwant %v", got, want)
	}
	if n := city.Metrics.Coalesced.Value(); n != 0 {
		t.Fatalf("a failed flight counted %d coalesced subqueries", n)
	}
	if n := city.Metrics.SubqueryRPCs.Value(); n != 2 {
		t.Fatalf("%d subquery RPCs, want the leader's and one fallback", n)
	}
}

// waitFor polls cond until it holds, failing the test after a few seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSiteConcurrentCoalescedFetchesWithEviction races coalesced fetches
// against sensor updates and cache eviction; run with -race. Eviction goes
// through the copy-on-write write path exactly as a cache-pressure policy
// would, repeatedly un-caching the subtrees the query workers re-fetch.
func TestSiteConcurrentCoalescedFetchesWithEviction(t *testing.T) {
	sim := transport.SimConfig{Latency: time.Millisecond}
	d := deployCfg(t, true, sim, nil)
	cityName := "city-" + workload.CityName(0)
	city := d.sites[cityName]
	const iters = 30

	var wg sync.WaitGroup
	// Query workers: a small set of identical queries so flights overlap.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := d.db.BlockQuery(0, i%2, i%3)
				msg := &Message{Kind: KindQuery, Query: q}
				respB, err := d.net.Call(cityName, msg.Encode())
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if resp, derr := DecodeMessage(respB); derr != nil || resp.AsError() != nil {
					t.Errorf("worker %d: %v %v", w, derr, resp.AsError())
					return
				}
			}
		}(w)
	}
	// Update workers mutating the spaces those queries read.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				target := d.db.SpacePaths[(w*iters+i)%len(d.db.SpacePaths)]
				msg := &Message{Kind: KindUpdate, Path: target.String(),
					Fields: map[string]string{"available": fmt.Sprintf("v%d", i)}}
				if _, err := d.net.Call(d.assign.OwnerOf(target), msg.Encode()); err != nil {
					t.Errorf("update %d: %v", i, err)
					return
				}
			}
		}(w)
	}
	// Eviction worker: repeatedly drop cached block units at the city.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			p := d.db.BlockPath(0, i%2, i%3)
			city.wmu.Lock()
			st := city.state.Load()
			w := st.store.Begin()
			if err := w.EvictLocalInfo(p); err == nil {
				city.publishLocked(&siteState{store: w.Commit(), owned: st.owned, migrated: st.migrated})
			}
			city.wmu.Unlock()
		}
	}()
	wg.Wait()

	// The store still satisfies the structural invariants and queries still
	// answer correctly.
	snap := city.StoreSnapshot()
	var owned []xmldb.IDPath
	for _, k := range city.OwnedPaths() {
		p, err := xmldb.ParseIDPath(k)
		if err != nil {
			t.Fatal(err)
		}
		owned = append(owned, p)
	}
	if errs := fragment.CheckInvariants(snap, d.db.Doc, owned, false); len(errs) > 0 {
		t.Fatalf("invariants after stress: %v", errs)
	}
	q := d.db.BlockPath(0, 0, 0).String()
	frag := d.query(t, cityName, q)
	ans, err := qeg.ExtractAnswer(frag, q, d.clock)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0].Name != "block" {
		t.Fatalf("post-stress answer: %v", ans)
	}
}

// TestBatchSplittingByteIdenticalAnswer checks that three subrequests bound
// for one owner ship as one batch message, that a destination group split by
// the byte cap ships every entry as its own one-entry batch, and that both
// reassemble into exactly the same answer.
func TestBatchSplittingByteIdenticalAnswer(t *testing.T) {
	cityName := "city-" + workload.CityName(0)
	for _, k := range subrequestKinds {
		t.Run(k.name, func(t *testing.T) {
			run := func(mut func(*Config)) (*Site, string) {
				d := deployShared(t, false, transport.SimConfig{}, mut)
				// All three blocks of one neighborhood: three subrequests,
				// one destination site.
				q := k.wrap(d.db.NeighborhoodPath(0, 0).String() + "/block/parkingSpace")
				return d.sites[cityName], k.body(d.request(t, cityName, k.kind, q))
			}
			wc, whole := run(nil)
			sc, split := run(func(c *Config) { c.BatchByteCap = 1 })
			if whole != split {
				t.Fatalf("split batch answer differs from unsplit:\n%s\nvs\n%s", split, whole)
			}

			// The uncapped run shipped all three subrequests as one batch
			// message; the 1-byte cap collapses every piece to a single
			// entry, so each ships as a one-entry batch.
			if wc.Metrics.Subqueries.Value() != 3 || wc.Metrics.SubqueryRPCs.Value() != 1 {
				t.Fatalf("uncapped: subqueries=%d rpcs=%d, want 3/1",
					wc.Metrics.Subqueries.Value(), wc.Metrics.SubqueryRPCs.Value())
			}
			if sc.Metrics.SubqueryRPCs.Value() != 3 || sc.Metrics.Subqueries.Value() != 3 {
				t.Fatalf("capped: subqueries=%d rpcs=%d, want 3/3",
					sc.Metrics.Subqueries.Value(), sc.Metrics.SubqueryRPCs.Value())
			}
			if n := wc.Metrics.BatchSize.Count(); n != 1 || wc.Metrics.BatchSize.Mean() != 3 {
				t.Fatalf("uncapped batch-size histogram: count=%d mean=%v", n, wc.Metrics.BatchSize.Mean())
			}
			if n := sc.Metrics.BatchSize.Count(); n != 3 || sc.Metrics.BatchSize.Mean() != 1 {
				t.Fatalf("capped batch-size histogram: count=%d mean=%v", n, sc.Metrics.BatchSize.Mean())
			}
		})
	}
}

// TestBatchPartialEntryFailure fails one entry of a two-entry batch in
// transit and checks the sender splices the healthy entry and marks only
// the failed target unreachable — the same partial-answer semantics an
// individual subquery failure produces.
func TestBatchPartialEntryFailure(t *testing.T) {
	d := deployShared(t, false, transport.SimConfig{}, nil)
	cityName := "city-" + workload.CityName(0)
	blocksName := "blocks-" + workload.CityName(0)
	real := d.sites[blocksName]
	sabotage := "block[@id='2']"

	// Interpose on the block site: corrupt the batch entry targeting
	// block 2 so its evaluation fails, leaving the other entries intact.
	d.net.Unregister(blocksName)
	if err := d.net.Register(blocksName, func(ctx context.Context, payload []byte) ([]byte, error) {
		msg, err := DecodeMessage(payload)
		if err == nil && msg.Kind == KindBatch {
			for i := range msg.Entries {
				if strings.Contains(msg.Entries[i].Query, sabotage) {
					msg.Entries[i].Query = "]["
				}
			}
			payload = msg.Encode()
		}
		return real.Handle(ctx, payload)
	}); err != nil {
		t.Fatal(err)
	}

	q := d.db.NeighborhoodPath(0, 0).String() + "/block/parkingSpace[available='yes']"
	resp := d.queryRaw(t, cityName, q)
	if len(resp.Unreachable) != 1 || !strings.Contains(resp.Unreachable[0], `block[@id="2"]`) {
		t.Fatalf("unreachable = %v, want exactly block 2's target", resp.Unreachable)
	}
	if d.sites[cityName].Metrics.PartialAnswers.Value() != 1 {
		t.Fatal("partial answer not counted")
	}
	// The healthy entry still spliced: block 1's spaces are in the answer.
	frag, err := xmldb.ParseString(resp.Fragment)
	if err != nil {
		t.Fatal(err)
	}
	single := d.db.BlockQuery(0, 0, 0)
	got := extracted(t, frag, single, d.clock)
	want := centralAnswer(t, d, single)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("healthy entry not spliced:\n got %v\nwant %v", got, want)
	}
}

// TestBatchAnswerIsOneCommit checks the cost of a cache miss: a three-entry
// batch answer reaches the cache as one merge transaction — one published
// version, counted with its fragments by the merge counters — and, the site
// being durable, as one WAL record.
func TestBatchAnswerIsOneCommit(t *testing.T) {
	cityName := "city-" + workload.CityName(0)
	dir := t.TempDir()
	d := deployShared(t, true, transport.SimConfig{}, func(c *Config) {
		if c.Name == cityName {
			c.DataDir = filepath.Join(dir, "city")
			c.CacheBudgetBytes = 1 << 20
		}
	})
	city := d.sites[cityName]
	before := city.state.Load()
	appends := city.Metrics.WALAppends.Value()

	q := d.db.NeighborhoodPath(0, 0).String() + "/block/parkingSpace[available='yes']"
	d.queryRaw(t, cityName, q)

	m := &city.Metrics
	if m.SubqueryRPCs.Value() != 1 || m.Subqueries.Value() != 3 {
		t.Fatalf("test premise broken: rpcs=%d subqueries=%d, want one batch of 3",
			m.SubqueryRPCs.Value(), m.Subqueries.Value())
	}
	if commits, frags := m.CacheMergeCommits.Value(), m.CacheMergedFragments.Value(); commits != 1 || frags != 3 {
		t.Fatalf("merge commits=%d merged fragments=%d, want 1 commit installing 3 fragments", commits, frags)
	}
	if got := m.WALAppends.Value() - appends; got != 1 {
		t.Fatalf("batch answer appended %d WAL records, want 1", got)
	}
	after := city.state.Load()
	if after == before {
		t.Fatal("no new version published")
	}
	for b := 0; b < 3; b++ {
		if n := after.store.NodeAt(d.db.BlockPath(0, 0, b)); n == nil || fragment.StatusOf(n) != fragment.StatusComplete {
			t.Fatalf("block %d of the batch answer not cached in the published version", b)
		}
	}
	// The next query is a hit on that one version: nothing more is merged.
	d.queryRaw(t, cityName, q)
	if m.CacheMergeCommits.Value() != 1 || m.Subqueries.Value() != 3 {
		t.Fatal("repeat query went upstream again")
	}
}

// TestBatchMiddleEntryFailsToMerge hands the sender a batch answer whose
// middle entry parses but cannot be merged (wrong document root). The
// all-in-one transaction is abandoned and the entries commit one by one: the
// two healthy entries are cached and spliced, and only the middle entry's
// target is marked unreachable.
func TestBatchMiddleEntryFailsToMerge(t *testing.T) {
	d := deployShared(t, true, transport.SimConfig{}, nil)
	cityName := "city-" + workload.CityName(0)
	blocksName := "blocks-" + workload.CityName(0)
	real := d.sites[blocksName]

	var middleQuery string
	d.net.Unregister(blocksName)
	if err := d.net.Register(blocksName, func(ctx context.Context, payload []byte) ([]byte, error) {
		respB, err := real.Handle(ctx, payload)
		if err != nil {
			return respB, err
		}
		req, rerr := DecodeMessage(payload)
		resp, derr := DecodeMessage(respB)
		if rerr == nil && derr == nil && req.Kind == KindBatch && len(resp.Entries) == 3 {
			middleQuery = req.Entries[1].Query
			resp.Entries[1].Fragment = `<elsewhere id="x" status="complete"/>`
			respB = resp.Encode()
		}
		return respB, nil
	}); err != nil {
		t.Fatal(err)
	}

	q := d.db.NeighborhoodPath(0, 0).String() + "/block/parkingSpace[available='yes']"
	resp := d.queryRaw(t, cityName, q)
	if middleQuery == "" {
		t.Fatal("test premise broken: no three-entry batch was sent")
	}
	failed := -1
	for b := 0; b < 3; b++ {
		if strings.Contains(middleQuery, fmt.Sprintf("block[@id='%d']", b+1)) {
			failed = b
		}
	}
	if failed < 0 {
		t.Fatalf("cannot tell the middle entry's block from %q", middleQuery)
	}
	if len(resp.Unreachable) != 1 || resp.Unreachable[0] != d.db.BlockPath(0, 0, failed).Key() {
		t.Fatalf("unreachable = %v, want exactly %s", resp.Unreachable, d.db.BlockPath(0, 0, failed))
	}

	city := d.sites[cityName]
	if commits, frags := city.Metrics.CacheMergeCommits.Value(), city.Metrics.CacheMergedFragments.Value(); commits != 2 || frags != 2 {
		t.Fatalf("merge commits=%d merged fragments=%d, want the two healthy entries committed one by one", commits, frags)
	}
	frag, err := xmldb.ParseString(resp.Fragment)
	if err != nil {
		t.Fatal(err)
	}
	snap := city.StoreSnapshot()
	for b := 0; b < 3; b++ {
		n := snap.NodeAt(d.db.BlockPath(0, 0, b))
		cached := n != nil && fragment.StatusOf(n) == fragment.StatusComplete
		if cached != (b != failed) {
			t.Fatalf("block %d cached = %v, failed entry is block %d", b, cached, failed)
		}
		if b == failed {
			continue
		}
		single := d.db.BlockQuery(0, 0, b)
		got := extracted(t, frag, single, d.clock)
		want := centralAnswer(t, d, single)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("healthy entry for block %d not spliced:\n got %v\nwant %v", b, got, want)
		}
	}
}

// TestBatchReceiverPerEntryStatus drives a crafted KindBatch straight into
// a site: good and bad entries come back in order with individual statuses.
func TestBatchReceiverPerEntryStatus(t *testing.T) {
	d := deploy(t, false)
	nbName := "nb-" + workload.CityName(0) + "-" + workload.NeighborhoodName(0)
	good := qeg.SubtreeQuery(d.db.BlockPath(0, 0, 0))
	batch := &Message{Kind: KindBatch, Entries: []BatchEntry{
		{Query: good},
		{Query: "]["},
	}}
	respB, err := d.net.Call(nbName, batch.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeMessage(respB)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindBatchResult || len(resp.Entries) != 2 {
		t.Fatalf("resp kind=%s entries=%d", resp.Kind, len(resp.Entries))
	}
	if resp.Entries[0].Status != BatchEntryOK || resp.Entries[0].Fragment == "" {
		t.Fatalf("good entry: %+v", resp.Entries[0])
	}
	if resp.Entries[1].Status != BatchEntryError || resp.Entries[1].Error == "" {
		t.Fatalf("bad entry: %+v", resp.Entries[1])
	}
	if _, err := xmldb.ParseString(resp.Entries[0].Fragment); err != nil {
		t.Fatalf("good entry fragment unparsable: %v", err)
	}
}

// TestBatchedTraceOneSpanPerHop: a traced query whose three subrequests
// travel as one batch has one span per hop — the city site's and one per
// entry, hung directly under it — and every span carries stage timings.
func TestBatchedTraceOneSpanPerHop(t *testing.T) {
	d := deployShared(t, false, transport.SimConfig{}, nil)
	cityName := "city-" + workload.CityName(0)
	q := d.db.NeighborhoodPath(0, 0).String() + "/block/parkingSpace"
	respB, err := d.net.Call(cityName, (&Message{Kind: KindQuery, Query: q, TraceID: trace.NewTraceID()}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeMessage(respB)
	if err != nil {
		t.Fatal(err)
	}
	if rpcs := d.sites[cityName].Metrics.SubqueryRPCs.Value(); rpcs != 1 {
		t.Fatalf("test premise broken: %d subquery RPCs, want one batch", rpcs)
	}
	span := resp.Span
	if span == nil {
		t.Fatal("no span returned")
	}
	if n := span.Hops(); n != 4 {
		t.Fatalf("%d spans, want 4 (the city and three block entries):\n%s", n, trace.Render(span))
	}
	span.Walk(func(sp *trace.Span) {
		if len(sp.Stages) == 0 {
			t.Errorf("span %s@%s has no stage timings", sp.Op, sp.Site)
		}
	})
}

// TestSplitByByteCap checks the splitting invariants directly: order
// preserved, every piece non-empty, and no piece except singletons exceeds
// the cap.
func TestSplitByByteCap(t *testing.T) {
	var group []pendingSub
	for i := 0; i < 7; i++ {
		group = append(group, pendingSub{idx: i, entry: BatchEntry{Query: strings.Repeat("q", 40)}})
	}
	pieces := splitByByteCap(group, 120)
	if len(pieces) < 2 {
		t.Fatalf("expected a split, got %d pieces", len(pieces))
	}
	next := 0
	for _, piece := range pieces {
		if len(piece) == 0 {
			t.Fatal("empty piece")
		}
		for _, p := range piece {
			if p.idx != next {
				t.Fatalf("order broken: idx %d, want %d", p.idx, next)
			}
			next++
		}
	}
	if next != len(group) {
		t.Fatalf("%d entries after split, want %d", next, len(group))
	}
	// A cap smaller than any entry still ships singletons.
	tiny := splitByByteCap(group, 1)
	if len(tiny) != len(group) {
		t.Fatalf("1-byte cap: %d pieces, want %d singletons", len(tiny), len(group))
	}
}
