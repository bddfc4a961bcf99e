package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"irisnet/internal/site"
	"irisnet/internal/transport"
)

// TestPartitionedSiteYieldsPartialAnswerWithinDeadline is the headline
// fault-tolerance scenario: one neighborhood site is partitioned away
// mid-deployment, and a query spanning it and a healthy neighborhood must
// still return before its deadline, with the dead subtree marked
// unreachable and the healthy one answered.
func TestPartitionedSiteYieldsPartialAnswerWithinDeadline(t *testing.T) {
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

	c.Net.Partition(NBSiteName(0, 0))

	fe := c.NewFrontend()
	q := c.DB.TwoNeighborhoodQuery(0, 0, 0, 1, 0)
	t0 := time.Now()
	ans, err := fe.QueryFull(context.Background(), q)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatalf("partial answer expected, got hard failure: %v", err)
	}
	if elapsed >= cfg.QueryTimeout {
		t.Fatalf("query took %v, deadline was %v", elapsed, cfg.QueryTimeout)
	}
	if !ans.Partial() {
		t.Fatalf("answer not marked partial; nodes=%d unreachable=%v", len(ans.Nodes), ans.Unreachable)
	}
	var marksDead bool
	for _, p := range ans.Unreachable {
		if strings.Contains(p, c.DB.NeighborhoodPath(0, 0)[len(c.DB.NeighborhoodPath(0, 0))-1].ID) {
			marksDead = true
		}
	}
	if !marksDead {
		t.Fatalf("unreachable list %v does not mention the partitioned neighborhood", ans.Unreachable)
	}
	// The healthy neighborhood's data must still be in the answer.
	if len(ans.Nodes) == 0 {
		t.Fatal("partial answer carries no data from the healthy subtree")
	}

	var partials int64
	for _, s := range c.Sites {
		partials += s.Metrics.PartialAnswers.Value()
	}
	if partials == 0 {
		t.Fatal("no site recorded a partial answer")
	}
}

// TestHealedPartitionRecovers: after Heal, the same query completes fully.
func TestHealedPartitionRecovers(t *testing.T) {
	cfg := Config{
		Seed:         11,
		QueryTimeout: 3 * time.Second,
		Site:         site.Config{CallTimeout: 150 * time.Millisecond},
	}
	c, err := New(Hierarchical, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dead := NBSiteName(0, 0)
	c.Net.Partition(dead)
	fe := c.NewFrontend()
	q := c.DB.TwoNeighborhoodQuery(0, 0, 0, 1, 0)
	ans, err := fe.QueryFull(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Partial() {
		t.Fatal("expected a partial answer while partitioned")
	}

	c.Net.Heal(dead)
	ans2, err := fe.QueryFull(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Partial() {
		t.Fatalf("answer still partial after heal: %v", ans2.Unreachable)
	}
	if len(ans2.Nodes) <= len(ans.Nodes) {
		t.Fatalf("healed answer has %d nodes, partial had %d; want more after recovery",
			len(ans2.Nodes), len(ans.Nodes))
	}
}

// TestDroppedMessagesAreRetriedTransparently: with a lossy but not dead
// network, queries succeed completely and the retry counters tick.
func TestDroppedMessagesAreRetriedTransparently(t *testing.T) {
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
	var sawRetry bool
	for i := 0; i < 5; i++ {
		ans, err := fe.QueryFull(context.Background(), c.DB.TwoNeighborhoodQuery(0, 0, 0, 1, 0))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if ans.Partial() {
			t.Fatalf("query %d: partial answer on a merely lossy network: %v", i, ans.Unreachable)
		}
	}
	for _, s := range c.Sites {
		if s.Metrics.Retries.Value() > 0 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("20% drop rate over 5 queries produced zero site retries")
	}
}

// TestFaultRunsAreReproducible: same seed, same fault schedule, same
// partial/complete outcome pattern.
func TestFaultRunsAreReproducible(t *testing.T) {
	run := func() []bool {
		cfg := Config{
			Seed:         77,
			QueryTimeout: 2 * time.Second,
			Site:         site.Config{CallTimeout: 50 * time.Millisecond, Retry: transport.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}},
		}
		c, err := New(Hierarchical, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for name := range c.Sites {
			c.Net.SetFaults(name, transport.FaultConfig{DropRate: 0.4})
		}
		fe := c.NewFrontend()
		var outcomes []bool
		for i := 0; i < 8; i++ {
			ans, err := fe.QueryFull(context.Background(), c.DB.BlockQuery(0, 0, 0))
			outcomes = append(outcomes, err == nil && !ans.Partial())
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: run1 complete=%v run2 complete=%v (fault schedule not reproducible)", i, a[i], b[i])
		}
	}
}
