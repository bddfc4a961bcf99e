package cluster

import (
	"context"
	"testing"

	"irisnet/internal/site"
	"irisnet/internal/trace"
)

// TestQueryFreshnessEndToEnd: a cold query through the hierarchy ledgers
// owned and fetched provenance; repeating it against the warmed entry
// cache ledgers cached units; and the per-site freshness instruments
// advance.
func TestQueryFreshnessEndToEnd(t *testing.T) {
	c, err := New(Hierarchical, Config{Site: site.Config{Caching: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fe := c.NewFrontend()
	fe.ForceEntry = RootSiteName
	q := c.DB.BlockQuery(0, 0, 0)

	ans, span, err := fe.QueryTrace(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Nodes) == 0 {
		t.Fatal("cold query returned no data")
	}
	cold := trace.AggregateFreshness(span)
	if cold == nil {
		t.Fatal("cold query carried no freshness report")
	}
	if cold.OwnedUnits == 0 || cold.OwnedBytes <= 0 {
		t.Fatalf("owner's contribution not ledgered: %+v", cold)
	}
	if cold.FetchedBytes <= 0 {
		t.Fatalf("root fetched the block remotely but FetchedBytes=%d", cold.FetchedBytes)
	}

	_, span2, err := fe.QueryTrace(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	warm := trace.AggregateFreshness(span2)
	if warm == nil {
		t.Fatal("warm query carried no freshness report")
	}
	if warm.CachedUnits == 0 || warm.CachedBytes <= 0 {
		t.Fatalf("cache hit not ledgered: %+v", warm)
	}

	root := c.Sites[RootSiteName]
	if n := root.Metrics.AnswerStaleness.Count(); n < 2 {
		t.Fatalf("answer staleness histogram observed %d answers, want >= 2", n)
	}
	if root.Metrics.AnswerCacheBytes.Value() <= 0 {
		t.Fatal("answer cache-bytes counter did not advance on the warm query")
	}
	if root.Metrics.AnswerFetchedBytes.Value() <= 0 {
		t.Fatal("answer fetched-bytes counter did not advance on the cold query")
	}
}
