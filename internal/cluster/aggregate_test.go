package cluster

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"irisnet/internal/qeg"
	"irisnet/internal/service"
	"irisnet/internal/site"
	"irisnet/internal/transport"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

var aggFns = []xpath.AggFunc{xpath.AggCount, xpath.AggSum, xpath.AggAvg, xpath.AggMin, xpath.AggMax}

// aggCorpus is the inner-query corpus the differential tests sweep: one
// owned block, one whole neighborhood, a city-spanning path (pushdown to the
// neighborhood sites) and a federation-wide sweep with a predicate.
func aggCorpus(c *Cluster) []string {
	return []string{
		c.DB.BlockQuery(0, 0, 0),
		c.DB.NeighborhoodPath(0, 1).String() + "/block/parkingSpace/price",
		c.DB.CityPath(0).String() + "/neighborhood/block/parkingSpace/price",
		"/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city/neighborhood/block/parkingSpace[available='yes']/price",
	}
}

// rawAggregate computes the canonical answer client-side: raw gather of the
// inner query, then the naive fold. The pushdown path must match this state
// exactly on every input.
func rawAggregate(t *testing.T, fe *service.Frontend, inner string) qeg.AggPartial {
	t.Helper()
	frag, err := fe.QueryFragment(inner)
	if err != nil {
		t.Fatalf("raw gather %q: %v", inner, err)
	}
	p, err := qeg.ComputeAggregate(frag, inner, fe.Clock)
	if err != nil {
		t.Fatalf("naive aggregate %q: %v", inner, err)
	}
	return p
}

func sameValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// diffAggregates runs every function over every corpus query and demands
// the pushed-down answer equal the naive compute-over-raw-gather state.
func diffAggregates(t *testing.T, fe *service.Frontend, c *Cluster, label string) {
	t.Helper()
	for _, inner := range aggCorpus(c) {
		want := rawAggregate(t, fe, inner)
		for _, fn := range aggFns {
			q := fn.String() + "(" + inner + ")"
			got, err := fe.QueryAggregate(q)
			if err != nil {
				t.Fatalf("%s: %q: %v", label, q, err)
			}
			if got.State != want {
				t.Fatalf("%s: %q state = %+v, want %+v", label, q, got.State, want)
			}
			wantVal, wantOK := want.Final(fn)
			if got.Defined != wantOK || (wantOK && !sameValue(got.Value, wantVal)) {
				t.Fatalf("%s: %q value = %v (defined=%v), want %v (defined=%v)",
					label, q, got.Value, got.Defined, wantVal, wantOK)
			}
			if got.Partial() {
				t.Fatalf("%s: %q unexpectedly partial: %+v", label, q, got)
			}
		}
	}
}

func TestAggregateDifferentialAllArchitectures(t *testing.T) {
	for _, arch := range []Architecture{Centralized, CentralQueryDistUpdate, DistQueryFixed, Hierarchical} {
		c, err := New(arch, Config{DB: tinyDB()})
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		diffAggregates(t, c.NewFrontend(), c, arch.String())
		c.Close()
	}
}

func TestAggregatePushdownEngagesOnHierarchical(t *testing.T) {
	c, err := New(Hierarchical, Config{DB: tinyDB()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fe := c.NewFrontend()
	q := "count(" + c.DB.CityPath(0).String() + "/neighborhood/block/parkingSpace/price)"
	if _, err := fe.QueryAggregate(q); err != nil {
		t.Fatal(err)
	}
	var pushdowns, saved int64
	for _, s := range c.Sites {
		pushdowns += s.Metrics.AggregatePushdowns.Value()
		saved += s.Metrics.GatherBytesSaved.Value()
	}
	if pushdowns == 0 {
		t.Fatal("decomposable city-spanning aggregate did not take the pushdown path")
	}
	if saved == 0 {
		t.Fatal("pushdown recorded no bytes saved")
	}
}

func TestAggregateFallbackEquivalence(t *testing.T) {
	c, err := New(Hierarchical, Config{DB: tinyDB()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fe := c.NewFrontend()
	// A wildcard step is outside the decomposable class: the site must fall
	// back to raw gather plus local aggregation, with identical answers.
	inner := c.DB.CityPath(0).String() + "/*/block/parkingSpace/price"
	want := rawAggregate(t, fe, inner)
	// The city site serves the fallback: one aggregate is one query there,
	// counted once however the site gathers for it.
	m := &c.Sites[CitySiteName(0)].Metrics
	for _, fn := range aggFns {
		queries, answered, fell := m.Queries.Value(), m.CacheHits.Value()+m.CacheMisses.Value(), m.AggregateFallbacks.Value()
		got, err := fe.QueryAggregate(fn.String() + "(" + inner + ")")
		if err != nil {
			t.Fatal(err)
		}
		if got.State != want {
			t.Fatalf("fallback %v state = %+v, want %+v", fn, got.State, want)
		}
		if dq, da, df := m.Queries.Value()-queries, m.CacheHits.Value()+m.CacheMisses.Value()-answered, m.AggregateFallbacks.Value()-fell; dq != 1 || da != 1 || df != 1 {
			t.Fatalf("fallback %v moved the serving site by queries=%+d hits+misses=%+d fallbacks=%+d, want +1/+1/+1", fn, dq, da, df)
		}
	}
	var fallbacks int64
	for _, s := range c.Sites {
		fallbacks += s.Metrics.AggregateFallbacks.Value()
	}
	if fallbacks == 0 {
		t.Fatal("non-decomposable aggregate did not take the fallback path")
	}
}

func TestAggregateCachingMixedAndSummaryHits(t *testing.T) {
	c, err := New(Hierarchical, Config{DB: tinyDB(), Site: site.Config{Caching: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fe := c.NewFrontend()
	// Warm the raw caches first so interior sites hold cached copies below
	// the aggregate's targets (the mixed arm): correctness must survive
	// whichever of pushdown or fallback the disjointness check picks.
	for _, inner := range aggCorpus(c) {
		if _, err := fe.Query(inner); err != nil {
			t.Fatalf("warm %q: %v", inner, err)
		}
	}
	diffAggregates(t, fe, c, "caching/mixed")

	// A repeated aggregate is served from the summary cache.
	q := "sum(" + c.DB.CityPath(0).String() + "/neighborhood/block/parkingSpace/price)"
	first, err := fe.QueryAggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := fe.QueryAggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != again.State {
		t.Fatalf("summary replay changed the answer: %+v vs %+v", first.State, again.State)
	}
	var hits int64
	for _, s := range c.Sites {
		hits += s.Metrics.SummaryHits.Value()
	}
	if hits == 0 {
		t.Fatal("repeated aggregate did not hit any summary cache")
	}
}

func TestAggregateUpdateInvalidatesSummaries(t *testing.T) {
	c, err := New(Hierarchical, Config{DB: tinyDB(), Site: site.Config{Caching: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fe := c.NewFrontend()
	inner := c.DB.BlockPath(0, 0, 0).String() + "/parkingSpace/price"
	q := "sum(" + inner + ")"
	before, err := fe.QueryAggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	// Cache the summary, then move one price far outside the generator's
	// range so a stale replay is unmistakable.
	if _, err := fe.QueryAggregate(q); err != nil {
		t.Fatal(err)
	}
	space := append(append(xmldb.IDPath{}, c.DB.BlockPath(0, 0, 0)...), xmldb.Step{Name: "parkingSpace", ID: "1"})
	if err := fe.Update(space, map[string]string{"price": "10000"}, nil); err != nil {
		t.Fatal(err)
	}
	after, err := fe.QueryAggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.State == before.State {
		t.Fatalf("aggregate unchanged after update: %+v", after.State)
	}
	if want := rawAggregate(t, fe, inner); after.State != want {
		t.Fatalf("post-update aggregate = %+v, want %+v", after.State, want)
	}
	if after.Value < 10000 {
		t.Fatalf("post-update sum %v does not reflect the new price", after.Value)
	}
}

func TestAggregatePartitionYieldsPartialAnswer(t *testing.T) {
	cfg := Config{
		DB:           tinyDB(),
		Seed:         11,
		QueryTimeout: 3 * time.Second,
		Site:         site.Config{CallTimeout: 150 * time.Millisecond, Retry: transport.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}},
	}
	c, err := New(Hierarchical, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Net.Partition(NBSiteName(0, 0))

	fe := c.NewFrontend()
	inner := c.DB.CityPath(0).String() + "/neighborhood/block/parkingSpace/price"
	got, err := fe.QueryAggregateContext(context.Background(), "count("+inner+")")
	if err != nil {
		t.Fatalf("partial aggregate expected, got hard failure: %v", err)
	}
	if !got.Partial() {
		t.Fatalf("aggregate over a partitioned subtree not marked partial: %+v", got)
	}
	deadID := c.DB.NeighborhoodPath(0, 0)[len(c.DB.NeighborhoodPath(0, 0))-1].ID
	var marksDead bool
	for _, p := range got.Unreachable {
		if strings.Contains(p, deadID) {
			marksDead = true
		}
	}
	if !marksDead {
		t.Fatalf("unreachable list %v does not mention the partitioned neighborhood", got.Unreachable)
	}
	// The reachable data still aggregates, and matches the raw partial
	// answer's fold over the same healthy subtree.
	want := rawAggregate(t, fe, inner)
	if got.State != want {
		t.Fatalf("partial aggregate = %+v, raw partial fold = %+v", got.State, want)
	}
	if got.State.Count == 0 {
		t.Fatal("partial aggregate carries no data from the healthy neighborhood")
	}
}
