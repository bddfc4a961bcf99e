package cluster

import (
	"strings"
	"testing"
	"time"

	"irisnet/internal/sensor"
	"irisnet/internal/site"
	"irisnet/internal/workload"
)

// tinyDB keeps integration runs fast.
func tinyDB() workload.DBConfig {
	return workload.DBConfig{Cities: 2, Neighborhoods: 2, Blocks: 3, Spaces: 3, Seed: 9}
}

func TestArchitecturesAnswerCorrectly(t *testing.T) {
	for _, arch := range []Architecture{Centralized, CentralQueryDistUpdate, DistQueryFixed, Hierarchical} {
		c, err := New(arch, Config{DB: tinyDB()})
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		fe := c.NewFrontend()
		for _, q := range []string{
			c.DB.BlockQuery(0, 0, 0),
			c.DB.TwoBlockQuery(1, 1, 0, 1),
			c.DB.TwoNeighborhoodQuery(0, 0, 0, 1, 2),
			c.DB.TwoCityQuery(0, 0, 0, 1, 1, 2),
		} {
			got, err := fe.Query(q)
			if err != nil {
				t.Fatalf("%v query %q: %v", arch, q, err)
			}
			if len(got) == 0 {
				// Some blocks may genuinely have no available spaces; check
				// the query at least ran. Use a subtree query instead.
				continue
			}
			for _, n := range got {
				if n.Name != "parkingSpace" {
					t.Fatalf("%v: selected %q", arch, n.Name)
				}
			}
		}
		// Subtree sanity: a whole-neighborhood fetch returns all blocks.
		nbQuery := c.DB.NeighborhoodPath(0, 0).String()
		got, err := fe.Query(nbQuery)
		if err != nil {
			t.Fatalf("%v neighborhood query: %v", arch, err)
		}
		if len(got) != 1 || len(got[0].ChildrenNamed("block")) != c.DB.Cfg.Blocks {
			t.Fatalf("%v neighborhood subtree wrong: %v", arch, got)
		}
		c.Close()
	}
}

func TestArchitectureRouting(t *testing.T) {
	// Architecture 1/2 frontends force the central entry; 3/4 self-start.
	c1, err := New(CentralQueryDistUpdate, Config{DB: tinyDB()})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	entry, _, err := c1.NewFrontend().RouteOf(c1.DB.BlockQuery(0, 0, 0))
	if err != nil || entry != CentralSite {
		t.Fatalf("arch2 entry = %q, %v", entry, err)
	}

	c3, err := New(DistQueryFixed, Config{DB: tinyDB()})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	entry, _, err = c3.NewFrontend().RouteOf(c3.DB.BlockQuery(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(entry, "block-site-") {
		t.Fatalf("arch3 type-1 entry = %q, want a block site (self-starting)", entry)
	}

	c4, err := New(Hierarchical, Config{DB: tinyDB()})
	if err != nil {
		t.Fatal(err)
	}
	defer c4.Close()
	entry, _, err = c4.NewFrontend().RouteOf(c4.DB.BlockQuery(0, 1, 0))
	if err != nil || entry != NBSiteName(0, 1) {
		t.Fatalf("arch4 type-1 entry = %q, %v", entry, err)
	}
}

func TestRunLoadCompletes(t *testing.T) {
	c, err := New(Hierarchical, Config{DB: tinyDB()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := c.RunLoad(LoadOpts{Clients: 4, Duration: 150 * time.Millisecond, Mix: workload.QWMix, HitRatio: -1})
	if res.Completed == 0 {
		t.Fatal("no queries completed")
	}
	if res.Errors != 0 {
		t.Fatalf("%d query errors", res.Errors)
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not measured")
	}
	if res.Latency.Count() != res.Completed {
		t.Fatal("latency histogram incomplete")
	}
}

func TestHitRatioStream(t *testing.T) {
	db := workload.Build(tinyDB())
	// HitRatio 0: every query distinct until the space is exhausted.
	s := newQueryStream(db, LoadOpts{Clients: 1, Mix: workload.QW1, HitRatio: 0, Seed: 3})
	seen := map[string]bool{}
	distinctSpace := db.Cfg.Cities * db.Cfg.Neighborhoods * db.Cfg.Blocks
	for i := 0; i < distinctSpace; i++ {
		q := s.next(0)
		if seen[q] {
			t.Fatalf("hit-ratio-0 stream repeated %q at %d", q, i)
		}
		seen[q] = true
	}
	// HitRatio 1: every query is drawn from the pre-seeded working set.
	s2 := newQueryStream(db, LoadOpts{Clients: 1, Mix: workload.QW1, HitRatio: 1, Seed: 3, WarmPool: 4})
	pool := map[string]bool{}
	for _, q := range s2.seenBy[workload.Type1] {
		pool[q] = true
	}
	if len(pool) != 4 {
		t.Fatalf("warm pool = %d, want 4", len(pool))
	}
	for i := 0; i < 40; i++ {
		if q := s2.next(0); !pool[q] {
			t.Fatalf("hit-ratio-1 stream left the working set: %q", q)
		}
	}
	// Negative: plain random stream works.
	s3 := newQueryStream(db, LoadOpts{Clients: 2, Mix: workload.QWMix, HitRatio: -1, Seed: 3})
	if s3.next(0) == "" || s3.next(1) == "" {
		t.Fatal("plain stream empty")
	}
}

func TestUniqueGenExhaustsCleanly(t *testing.T) {
	db := workload.Build(workload.DBConfig{Cities: 2, Neighborhoods: 2, Blocks: 2, Spaces: 1, Seed: 1})
	u := newUniqueGen(db, workload.QW1)
	n := 0
	for u.next() != "" {
		n++
		if n > 1000 {
			t.Fatal("unique generator did not terminate")
		}
	}
	if n != db.Cfg.Cities*db.Cfg.Neighborhoods*db.Cfg.Blocks {
		t.Fatalf("unique type-1 queries = %d", n)
	}
}

func TestDynamicLoadBalanceMigrates(t *testing.T) {
	c, err := New(Hierarchical, Config{DB: tinyDB(), Site: site.Config{QueryWork: 2 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	opts := LoadOpts{
		Clients: 8, Duration: 600 * time.Millisecond,
		Mix: workload.QW1, SkewCity: 0, SkewNB: 0, SkewPct: 90,
		HitRatio: -1,
	}
	plan := MigrationPlan{HotCity: 0, HotNB: 0, StartAfter: 150 * time.Millisecond, Interval: 30 * time.Millisecond}
	tl, res, err := c.RunDynamicLoadBalance(opts, plan, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("migration failed: %v", err)
	}
	if res.Completed == 0 {
		t.Fatal("no queries completed during load balancing")
	}
	if len(tl.Windows()) == 0 {
		t.Fatal("no timeline recorded")
	}
	// Blocks must actually have moved off the hot site.
	hot := c.Sites[NBSiteName(0, 0)]
	movedAway := 0
	for b := 0; b < c.DB.Cfg.Blocks; b++ {
		if !hot.Owns(c.DB.BlockPath(0, 0, b)) {
			movedAway++
		}
	}
	if movedAway == 0 {
		t.Fatal("no blocks migrated")
	}
	// Queries remain correct after migration.
	fe := c.NewFrontend()
	got, err := fe.Query(c.DB.BlockQuery(0, 0, 0))
	if err != nil {
		t.Fatalf("post-migration query: %v", err)
	}
	_ = got
}

func TestDynamicLoadBalanceRequiresArch4(t *testing.T) {
	c, err := New(Centralized, Config{DB: tinyDB()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.RunDynamicLoadBalance(LoadOpts{Clients: 1, Duration: 10 * time.Millisecond, Mix: workload.QW1, HitRatio: -1}, MigrationPlan{}, time.Second)
	if err == nil {
		t.Fatal("arch1 should reject dynamic load balancing")
	}
}

func TestSensorUpdatesFlow(t *testing.T) {
	c, err := New(Hierarchical, Config{DB: tinyDB()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	agents, err := sensor.SplitTargets(c.UpdatePaths(), 4, c.Net, c.NewResolver)
	if err != nil {
		t.Fatal(err)
	}
	gen := sensor.NewGenerator(agents)
	total := gen.Run(120 * time.Millisecond)
	if total == 0 {
		t.Fatal("no updates delivered")
	}
	var applied int64
	for _, s := range c.Sites {
		applied += s.Metrics.Updates.Value()
	}
	if applied != total {
		t.Fatalf("sent %d updates but sites applied %d", total, applied)
	}
	for _, a := range agents {
		if a.Errors.Value() != 0 {
			t.Fatalf("agent errors: %d", a.Errors.Value())
		}
	}
}

func TestBalancedSkewCluster(t *testing.T) {
	c, err := BalancedSkewCluster(Config{DB: tinyDB()}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The hot neighborhood's blocks are spread over multiple sites.
	owners := map[string]bool{}
	for b := 0; b < c.DB.Cfg.Blocks; b++ {
		owners[c.Assign.OwnerOf(c.DB.BlockPath(0, 0, b))] = true
	}
	if len(owners) < 2 {
		t.Fatalf("balanced cluster put all hot blocks on %d site(s)", len(owners))
	}
	// Queries stay correct.
	fe := c.NewFrontend()
	if _, err := fe.Query(c.DB.BlockQuery(0, 0, 1)); err != nil {
		t.Fatalf("balanced query: %v", err)
	}
}

func TestCachingClusterCorrectness(t *testing.T) {
	c, err := New(Hierarchical, Config{DB: tinyDB(), Site: site.Config{Caching: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fe := c.NewFrontend()
	q := c.DB.TwoNeighborhoodQuery(0, 0, 0, 1, 1)
	first, err := fe.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := fe.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("cached answer differs: %d vs %d", len(first), len(second))
	}
	// The city site must have served the repeat locally.
	city := c.Sites[CitySiteName(0)]
	if city.Metrics.CacheHits.Value() == 0 {
		t.Fatal("repeat type-3 query should hit the city cache")
	}
}
