package cluster

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"irisnet/internal/fragment"
	"irisnet/internal/site"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// The tests in this file hold the properties the retired irisbench
// experiments (aggregates, cache-pressure; docs/history) were built to show,
// as invariants: one sequential client, an injected clock, SimNet's byte
// counters, and no comparison of wall-clock times.

// stepClock is an injected cluster clock the test advances by hand, so
// update timestamps and cache recency are the same on every run.
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
			DB:   db,
			Site: site.Config{Caching: true, CacheBudgetBytes: budget, Clock: clock.now},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fe := c.NewFrontend()
		fe.ForceEntry = RootSiteName
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
