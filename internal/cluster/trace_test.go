package cluster

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"irisnet/internal/site"
	"irisnet/internal/trace"
	"irisnet/internal/transport"
)

// TestTraceOneSpanPerHop: a query entered at the root of architecture 4 and
// spanning two neighborhoods must produce a trace tree with one span per
// hop of the real query path — root, the city site(s), and both
// neighborhood sites — each carrying stage timings.
func TestTraceOneSpanPerHop(t *testing.T) {
	c, err := New(Hierarchical, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fe := c.NewFrontend()
	fe.ForceEntry = RootSiteName
	ans, span, err := fe.QueryTrace(context.Background(), c.DB.TwoNeighborhoodQuery(0, 0, 0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Nodes) == 0 {
		t.Fatal("traced query returned no data")
	}
	if span == nil {
		t.Fatal("no span returned")
	}
	if span.Site != RootSiteName {
		t.Fatalf("root span from %q, want %q", span.Site, RootSiteName)
	}
	if !span.Consistent() {
		t.Fatal("spans carry mixed trace IDs after gather merge")
	}
	if span.Hops() < 3 {
		t.Fatalf("got %d hops, want >= 3 (root -> city -> neighborhoods)", span.Hops())
	}
	perSite := trace.Summarize(span)
	for _, want := range []string{RootSiteName, NBSiteName(0, 0), NBSiteName(0, 1)} {
		if perSite[want] == 0 {
			t.Errorf("no span from %s; sites seen: %v", want, trace.Sites(span))
		}
	}
	span.Walk(func(sp *trace.Span) {
		if sp.Error != "" {
			t.Errorf("span at %s has error %q on a healthy cluster", sp.Site, sp.Error)
		}
		if len(sp.Stages) == 0 {
			t.Errorf("span at %s has no stage timings", sp.Site)
		}
	})
	if span.Subqueries == 0 || span.CacheHit {
		t.Fatalf("root span should fan out: subqueries=%d cacheHit=%v", span.Subqueries, span.CacheHit)
	}
	out := trace.Render(span)
	if !strings.Contains(out, "TRACE "+span.TraceID) || !strings.Contains(out, "@"+RootSiteName) {
		t.Fatalf("rendered trace malformed:\n%s", out)
	}
}

// TestTraceIDsUniqueAndStable: every query gets its own TraceID, and every
// span of one query shares it.
func TestTraceIDsUniqueAndStable(t *testing.T) {
	c, err := New(Hierarchical, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fe := c.NewFrontend()
	fe.ForceEntry = RootSiteName
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		_, span, err := fe.QueryTrace(context.Background(), c.DB.BlockQuery(0, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if span.TraceID == "" {
			t.Fatal("empty trace ID")
		}
		if seen[span.TraceID] {
			t.Fatalf("trace ID %s reused", span.TraceID)
		}
		seen[span.TraceID] = true
		if !span.Consistent() {
			t.Fatalf("query %d: child spans lost the trace ID", i)
		}
	}
}

// TestTraceSurvivesRetries: on a lossy network the retried subquery calls
// are billed to the span of the hop that issued them, and the trace tree
// still assembles completely.
func TestTraceSurvivesRetries(t *testing.T) {
	cfg := Config{
		Seed:         23,
		QueryTimeout: 10 * time.Second,
		Site:         site.Config{CallTimeout: time.Second, Retry: transport.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond}},
	}
	c, err := New(Hierarchical, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name := range c.Sites {
		c.Net.SetFaults(name, transport.FaultConfig{DropRate: 0.2})
	}

	fe := c.NewFrontend()
	fe.ForceEntry = RootSiteName
	var spanRetries int64
	for i := 0; i < 5; i++ {
		ans, span, err := fe.QueryTrace(context.Background(), c.DB.TwoNeighborhoodQuery(0, 0, 0, 1, 0))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if ans.Partial() {
			t.Fatalf("query %d: partial on a merely lossy network", i)
		}
		if !span.Consistent() {
			t.Fatalf("query %d: inconsistent trace after retries", i)
		}
		span.Walk(func(sp *trace.Span) { spanRetries += sp.Retries })
	}
	if spanRetries == 0 {
		t.Fatal("20% drop rate produced zero retries in the spans")
	}
}

// TestTraceMarksPartialAnswers: a partitioned neighborhood shows up in the
// trace as an error span under the hop that tried to reach it, and the
// ancestor spans are marked partial.
func TestTraceMarksPartialAnswers(t *testing.T) {
	cfg := Config{
		Seed:         11,
		QueryTimeout: 3 * time.Second,
		Site:         site.Config{CallTimeout: 150 * time.Millisecond, Retry: transport.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}},
	}
	c, err := New(Hierarchical, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dead := NBSiteName(0, 0)
	c.Net.Partition(dead)

	// Enter at the city so its own subquery to the dead neighborhood is the
	// call that fails (entering higher up, the ancestor call can burn the
	// deadline first and the error span lands on the ancestor instead).
	fe := c.NewFrontend()
	fe.ForceEntry = CitySiteName(0)
	ans, span, err := fe.QueryTrace(context.Background(), c.DB.TwoNeighborhoodQuery(0, 0, 0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Partial() {
		t.Fatal("expected a partial answer while partitioned")
	}
	if !span.Consistent() {
		t.Fatal("inconsistent trace on partial answer")
	}
	if !span.Partial {
		t.Fatal("root span not marked partial")
	}
	var deadSpan *trace.Span
	span.Walk(func(sp *trace.Span) {
		if sp.Site == dead && sp.Error != "" {
			deadSpan = sp
		}
	})
	if deadSpan == nil {
		t.Fatalf("no error span for the partitioned site %s:\n%s", dead, trace.Render(span))
	}
}

// TestClusterAdminEndpoint: a cluster's admin endpoint exposes per-site
// query/cache/retry/partial series in one registry without collisions, and
// /debug/fragment reports every site.
func TestClusterAdminEndpoint(t *testing.T) {
	cfg := Config{Site: site.Config{Caching: true}}
	c, err := New(Hierarchical, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	admin, addr, err := c.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Shutdown(context.Background())

	fe := c.NewFrontend()
	fe.ForceEntry = RootSiteName
	for i := 0; i < 3; i++ {
		if _, err := fe.Query(c.DB.TwoNeighborhoodQuery(0, 0, 0, 1, 0)); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`irisnet_queries_total{site="` + RootSiteName + `"}`,
		`irisnet_queries_total{site="` + NBSiteName(0, 0) + `"}`,
		`irisnet_cache_hits_total{site="`,
		`irisnet_cache_misses_total{site="`,
		`irisnet_retries_total{site="`,
		`irisnet_partial_answers_total{site="`,
		"# TYPE irisnet_queries_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get("http://" + addr + "/debug/fragment")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{RootSiteName, NBSiteName(0, 0)} {
		if !strings.Contains(string(body), `"site": "`+name+`"`) {
			t.Errorf("/debug/fragment missing site %s", name)
		}
	}
}
