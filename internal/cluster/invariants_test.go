package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/service"
	"irisnet/internal/site"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// The tests in this file hold the properties the retired irisbench
// experiments (aggregates, cache-pressure, replication; docs/history) were
// built to show, as invariants: one sequential client, an injected clock,
// SimNet's byte counters, and no comparison of wall-clock times.

// stepClock is an injected cluster clock the test advances by hand, so
// update timestamps, cache recency and replication watermarks are the same
// on every run.
type stepClock struct{ sec atomic.Int64 }

func newStepClock() *stepClock {
	c := &stepClock{}
	c.sec.Store(1000)
	return c
}

func (c *stepClock) now() float64  { return float64(c.sec.Load()) }
func (c *stepClock) tick() float64 { return float64(c.sec.Add(1)) }

// TestPushdownMovesTenfoldFewerWireBytes: over the same sweep of
// neighborhood-wide, city-spanning and federation-wide aggregates, asking
// the federation for fn(path) puts at least ten times fewer bytes on the
// wire than gathering the path's answer fragment and folding it at the
// client, and both give the same state.
func TestPushdownMovesTenfoldFewerWireBytes(t *testing.T) {
	c, err := New(Hierarchical, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fe := c.NewFrontend()

	type aggQuery struct{ fn, inner string }
	var sweep []aggQuery
	next := 0
	add := func(inner string) {
		sweep = append(sweep, aggQuery{aggFns[next%len(aggFns)].String(), inner})
		next++
	}
	for city := 0; city < c.DB.Cfg.Cities; city++ {
		for nb := 0; nb < c.DB.Cfg.Neighborhoods; nb++ {
			add(c.DB.NeighborhoodPath(city, nb).String() + "/block/parkingSpace/price")
		}
		add(c.DB.CityPath(city).String() + "/neighborhood/block/parkingSpace[available='yes']/price")
	}
	add("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city/neighborhood/block/parkingSpace[available='yes']/price")

	var rawBytes, pushBytes int64
	for _, q := range sweep {
		b0 := c.Net.BytesTotal()
		want := rawAggregate(t, fe, q.inner)
		b1 := c.Net.BytesTotal()
		got, err := fe.QueryAggregate(q.fn + "(" + q.inner + ")")
		if err != nil {
			t.Fatalf("%s(%s): %v", q.fn, q.inner, err)
		}
		b2 := c.Net.BytesTotal()
		if got.State != want {
			t.Fatalf("%s(%s): pushdown state %+v, raw fold %+v", q.fn, q.inner, got.State, want)
		}
		rawBytes += b1 - b0
		pushBytes += b2 - b1
	}
	if pushBytes == 0 || rawBytes < 10*pushBytes {
		t.Fatalf("raw gather moved %d wire bytes, pushdown %d over %d aggregates: want at least 10x fewer",
			rawBytes, pushBytes, len(sweep))
	}
	t.Logf("wire bytes over %d aggregates: raw %d, pushdown %d (x%.0f)",
		len(sweep), rawBytes, pushBytes, float64(rawBytes)/float64(pushBytes))
}

// TestCacheBudgetBoundsBytesAndHitRateDeclinesInOrder drives one seeded
// skewed block-query stream (80% of queries over the hottest 20% of blocks)
// through the root of a caching hierarchy, first unbounded to learn the
// cache footprint, then with the budget at 100, 75, 50, 25 and 10% of it.
// After every query the root's accounted cache bytes are within the budget
// plus one local-information unit, and the hit rate falls with the budget in
// order and without a cliff: at half the footprint or more it keeps at least
// 60% of the unbounded rate, and at a quarter there are still hits.
func TestCacheBudgetBoundsBytesAndHitRateDeclinesInOrder(t *testing.T) {
	db := workload.DBConfig{Cities: 2, Neighborhoods: 3, Blocks: 8, Spaces: 6, Seed: 5}
	const queries = 400

	var maxUnit int64
	workload.Build(db).Doc.Walk(func(n *xmldb.Node) bool {
		if n.ID() != "" || n.Parent == nil {
			if b := int64(fragment.LocalInfoBytes(n)); b > maxUnit {
				maxUnit = b
			}
		}
		return true
	})

	// arm returns the root's hit rate and its largest cache size after any
	// query of the stream.
	arm := func(budget int64) (hitRate float64, maxBytes int64) {
		clock := newStepClock()
		c, err := New(Hierarchical, Config{
			DB:         db,
			ForceEntry: RootSiteName,
			Site:       site.Config{Caching: true, CacheBudgetBytes: budget, Clock: clock.now},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fe := c.NewFrontend()
		root := c.Sites[RootSiteName]

		cfg := c.DB.Cfg
		nBlocks := cfg.Cities * cfg.Neighborhoods * cfg.Blocks
		hot := nBlocks / 5
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < queries; i++ {
			b := hot + rng.Intn(nBlocks-hot)
			if rng.Intn(100) < 80 {
				b = rng.Intn(hot)
			}
			q := c.DB.BlockQuery(b%cfg.Cities, (b/cfg.Cities)%cfg.Neighborhoods, b/(cfg.Cities*cfg.Neighborhoods))
			clock.tick()
			if _, err := fe.Query(q); err != nil {
				t.Fatalf("budget %d, query %d: %v", budget, i, err)
			}
			got := int64(root.CacheBytes())
			if got > maxBytes {
				maxBytes = got
			}
			if budget > 0 && got > budget+maxUnit {
				t.Fatalf("budget %d: root caches %d bytes after query %d, over budget + one unit (%d)",
					budget, got, i, maxUnit)
			}
		}
		hits, misses := root.Metrics.CacheHits.Value(), root.Metrics.CacheMisses.Value()
		if hits+misses != queries {
			t.Fatalf("budget %d: root counted %d hits + %d misses for %d queries", budget, hits, misses, queries)
		}
		if budget > 0 && root.Metrics.Evictions.Value() == 0 && maxBytes > budget {
			t.Fatalf("budget %d: cache reached %d bytes and nothing was evicted", budget, maxBytes)
		}
		return float64(hits) / queries, maxBytes
	}

	fullRate, footprint := arm(0)
	if fullRate < 0.5 || footprint == 0 {
		t.Fatalf("unbounded arm: hit rate %.2f, footprint %d: the stream does not exercise the cache", fullRate, footprint)
	}
	prev := fullRate
	for _, pct := range []int64{100, 75, 50, 25, 10} {
		rate, _ := arm(footprint * pct / 100)
		t.Logf("budget %3d%% of %d bytes: hit rate %.3f (unbounded %.3f)", pct, footprint, rate, fullRate)
		switch {
		case rate > prev:
			t.Fatalf("budget %d%%: hit rate %.3f above the larger cache's %.3f", pct, rate, prev)
		case pct == 100 && rate != fullRate:
			t.Fatalf("budget of the whole footprint: hit rate %.3f, unbounded %.3f", rate, fullRate)
		case pct >= 50 && rate < 0.6*fullRate:
			t.Fatalf("budget %d%%: hit rate %.3f fell off a cliff (unbounded %.3f)", pct, rate, fullRate)
		case pct >= 25 && rate == 0:
			t.Fatalf("budget %d%%: no hits at all", pct)
		}
		prev = rate
	}
}

// replicatedCluster is a hierarchy whose hot neighborhood (0,0) streams to
// the given number of read replicas. Name lookups are never cached, so a
// promotion repoints every resolver at once.
type replicatedCluster struct {
	*Cluster
	clock    *stepClock
	hot      xmldb.IDPath
	owner    string
	replicas []string
	spaces   []xmldb.IDPath    // the hot neighborhood's parking spaces
	seq      int               // last update value written
	acked    map[string]string // space path -> last acknowledged price
}

func newReplicatedCluster(t *testing.T, replicas int) *replicatedCluster {
	t.Helper()
	clock := newStepClock()
	c, err := New(Hierarchical, Config{
		DB:           tinyDB(),
		DNSTTL:       time.Nanosecond,
		QueryTimeout: 2 * time.Second,
		Site: site.Config{
			Clock:                clock.now,
			ReplicaFlushInterval: time.Millisecond,
			CallTimeout:          250 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	r := &replicatedCluster{Cluster: c, clock: clock, hot: c.DB.NeighborhoodPath(0, 0), owner: NBSiteName(0, 0),
		acked: map[string]string{}}
	for i := 1; i <= replicas; i++ {
		name := fmt.Sprintf("replica-%d", i)
		if _, err := c.AddReplicaSite(name); err != nil {
			t.Fatal(err)
		}
		if err := c.Sites[r.owner].AddReadReplica(r.hot, name, 3600); err != nil {
			t.Fatal(err)
		}
		r.replicas = append(r.replicas, name)
	}
	prefix := r.hot.Key() + "/"
	for _, p := range c.DB.SpacePaths {
		if strings.HasPrefix(p.Key(), prefix) {
			r.spaces = append(r.spaces, p)
		}
	}
	return r
}

// update writes the next sequence number as the price of one hot space, at
// a clock second of its own, and records the acknowledged value.
func (r *replicatedCluster) update(t *testing.T, fe *service.Frontend) {
	t.Helper()
	r.seq++
	p := r.spaces[r.seq%len(r.spaces)]
	v := strconv.Itoa(r.seq)
	r.clock.tick()
	if err := fe.Update(p, map[string]string{"available": "yes", "price": v}, nil); err != nil {
		t.Fatalf("update %d: %v", r.seq, err)
	}
	r.acked[p.String()] = v
}

// drain waits until each named replica has applied every commit made so
// far. A batch's watermark is the owner clock read when the batch was cut,
// so the clock moves on first: a watermark at the new second belongs to a
// batch cut after every earlier commit.
func (r *replicatedCluster) drain(t *testing.T, replicas []string) {
	t.Helper()
	mark := r.clock.tick()
	deadline := time.Now().Add(5 * time.Second)
	for _, name := range replicas {
		for {
			if w, ok := r.Sites[name].ReplicaWatermark(r.hot); ok && w >= mark {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never drained to watermark %v", name, mark)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// canonAnswer renders a query's answer as sorted canonical XML.
func canonAnswer(t *testing.T, fe *service.Frontend, q string) string {
	t.Helper()
	nodes, err := fe.Query(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.Canonical())
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestReplicaRoutingAndByteIdentity: with read replicas registered, a query
// whose freshness conjunct tolerates no staleness routes to the owner and a
// tolerant one to a replica, and each answers byte for byte what a cluster
// with no replicas answers after the same updates.
func TestReplicaRoutingAndByteIdentity(t *testing.T) {
	withReps := newReplicatedCluster(t, 3)
	ownerOnly := newReplicatedCluster(t, 0)
	fe, feRef := withReps.NewFrontend(), ownerOnly.NewFrontend()
	for i := 0; i < 2*len(withReps.spaces); i++ {
		withReps.update(t, fe)
		ownerOnly.update(t, feRef)
	}
	withReps.drain(t, withReps.replicas)

	isReplica := map[string]bool{}
	for _, name := range withReps.replicas {
		isReplica[name] = true
	}
	served := func() (n int64) {
		for _, name := range withReps.replicas {
			n += withReps.Sites[name].Metrics.Queries.Value()
		}
		return n
	}
	for b := 0; b < withReps.DB.Cfg.Blocks; b++ {
		tolerant := withReps.DB.BlockQuery(0, 0, b)
		// @ts against an absolute time is outside the time-invariant subset:
		// tolerance 0, owner only.
		strict := tolerant + "[@ts >= 0]"
		if entry, _, err := fe.RouteOf(strict); err != nil || entry != withReps.owner {
			t.Fatalf("strict %q routed to %q (%v), want the owner %s", strict, entry, err, withReps.owner)
		}
		if entry, _, err := fe.RouteOf(tolerant); err != nil || !isReplica[entry] {
			t.Fatalf("tolerant %q routed to %q (%v), want a replica", tolerant, entry, err)
		}
		before := served()
		if got, want := canonAnswer(t, fe, strict), canonAnswer(t, feRef, strict); got != want {
			t.Fatalf("strict %q differs from the owner-only cluster:\n got %s\nwant %s", strict, got, want)
		}
		if served() != before {
			t.Fatalf("strict %q was served by a replica", strict)
		}
		if got, want := canonAnswer(t, fe, tolerant), canonAnswer(t, feRef, tolerant); got != want {
			t.Fatalf("tolerant %q differs from the owner-only cluster:\n got %s\nwant %s", tolerant, got, want)
		}
		if served() != before+1 {
			t.Fatalf("tolerant %q was not served by a replica", tolerant)
		}
	}
}

// TestFailoverLosesNoAckedUpdate: a client interleaves updates to the hot
// neighborhood with replica-served queries over it. One replica is cut off
// and falls behind, the owner is partitioned away and stopped, and the
// replica with the highest watermark is promoted. Every update acknowledged
// before the kill is at the new owner, the load carries on against it, and
// no answer the client sees is older than one it saw before for the same
// query and space.
func TestFailoverLosesNoAckedUpdate(t *testing.T) {
	r := newReplicatedCluster(t, 3)
	fe := r.NewFrontend()
	lastTS := map[string]float64{} // query|space id -> newest ts seen
	query := func(i int) {
		t.Helper()
		q := r.DB.BlockQuery(0, 0, i%r.DB.Cfg.Blocks)
		nodes, err := fe.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		for _, sp := range nodes {
			text, ok := sp.Attr(xmldb.AttrTimestamp)
			if !ok {
				continue
			}
			ts, err := strconv.ParseFloat(text, 64)
			if err != nil {
				t.Fatalf("query %d: bad ts %q", i, text)
			}
			k := q + "|" + sp.ID()
			if ts < lastTS[k] {
				t.Fatalf("query %d: %s went back in time: ts %v after %v", i, k, ts, lastTS[k])
			}
			lastTS[k] = ts
		}
	}
	verifyAcked := func(at string) {
		t.Helper()
		feOwner := r.NewFrontend()
		feOwner.ForceEntry = at
		for path, want := range r.acked {
			nodes, err := feOwner.Query(path)
			if err != nil || len(nodes) != 1 {
				t.Fatalf("acked update of %s lost at %s: %d nodes, err %v", path, at, len(nodes), err)
			}
			if price := nodes[0].ChildNamed("price"); price == nil || price.Text != want {
				t.Fatalf("acked update of %s lost at %s: price %v, want %s", path, at, price, want)
			}
		}
	}

	const load = 60
	for i := 0; i < load; i++ {
		r.update(t, fe)
		query(i)
	}
	var replicaServed int64
	for _, name := range r.replicas {
		replicaServed += r.Sites[name].Metrics.Queries.Value()
	}
	if replicaServed == 0 {
		t.Fatal("no query of the load was served by a replica")
	}

	// The last replica stops hearing from the owner; the updates after that
	// reach only the other two.
	laggard := r.replicas[len(r.replicas)-1]
	r.Net.Partition(laggard)
	for i := 0; i < len(r.spaces); i++ {
		r.update(t, fe)
	}
	r.drain(t, r.replicas[:len(r.replicas)-1])

	r.Net.Partition(r.owner)
	r.Sites[r.owner].Stop()
	r.Net.Heal(laggard)
	promoted, best := "", -1.0
	for _, name := range r.replicas {
		if w, ok := r.Sites[name].ReplicaWatermark(r.hot); ok && w > best {
			promoted, best = name, w
		}
	}
	if promoted == laggard {
		t.Fatalf("the cut-off replica %s has the highest watermark %v", laggard, best)
	}
	newOwner := r.Sites[promoted]
	if err := newOwner.Promote(r.hot); err != nil {
		t.Fatal(err)
	}
	for _, name := range r.replicas {
		if name != promoted {
			if err := newOwner.AddReadReplica(r.hot, name, 3600); err != nil {
				t.Fatal(err)
			}
		}
	}
	verifyAcked(promoted)

	for i := load; i < 2*load; i++ {
		r.update(t, fe)
		query(i)
	}
	if got := newOwner.Metrics.Updates.Value(); got < load {
		t.Fatalf("promoted owner %s applied %d updates after the failover, want %d", promoted, got, load)
	}
	verifyAcked(promoted)
}
