package irisnet

// Benchmarks regenerating every experiment of the paper's Section 5 (one
// benchmark family per figure; see EXPERIMENTS.md for the mapping and for
// paper-vs-measured discussion, and cmd/irisbench for the long-form runs
// that print the figures' exact rows/series).
//
// Throughput figures are reported via the "queries/sec" custom metric;
// shapes (which architecture wins, by what factor) are the reproduction
// target, not absolute numbers — the substrate is a simulated network and
// a native Go XML engine rather than the paper's 9-node cluster running
// Xindice/Xalan.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irisnet/internal/cluster"
	"irisnet/internal/qeg"
	"irisnet/internal/sensor"
	"irisnet/internal/site"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// benchCfg applies the paper-shaped service-time calibration (see
// cluster.PaperCalibration): per-operation costs in milliseconds, so the
// capacity bottlenecks arise from the single CPU slot each site holds
// during its (slept, host-independent) service time rather than from the
// host's core count.
func benchCfg() cluster.Config {
	return cluster.PaperCalibration(cluster.Config{DB: workload.PaperSmall()})
}

// benchClients is the closed-loop client population; well above the site
// count so the bottleneck sites saturate.
const benchClients = 24

// benchUpdateRate is the background sensor-update load present in the
// architecture experiments ("all architectures use the same number of
// SAs"). At 4 ms per update this occupies most of one OA — the burden that
// sinks the centralized designs.
const benchUpdateRate = 200

func runQueryBench(b *testing.B, c *cluster.Cluster, mix workload.Mix, skewPct int, updateRate float64) {
	b.Helper()
	var stop atomic.Bool
	var wg sync.WaitGroup
	stopUpdates := func() {}
	if updateRate > 0 {
		stopUpdates = c.StartBackgroundUpdates(cluster.LoadOpts{UpdateRate: updateRate}, &stop, &wg)
	}
	var clientID atomic.Int64
	b.SetParallelism(benchClients) // explicit: GOMAXPROCS may be 1
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := clientID.Add(1)
		fe := c.NewFrontend()
		gen := workload.NewGen(c.DB, mix, 1000+id)
		if skewPct > 0 {
			gen.Skew(0, 0, skewPct)
		}
		for pb.Next() {
			q, _ := gen.Next()
			if _, err := fe.Query(q); err != nil {
				b.Errorf("query: %v", err)
				return
			}
		}
	})
	b.StopTimer()
	stop.Store(true)
	stopUpdates()
	wg.Wait()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "queries/sec")
	}
}

// BenchmarkUpdateThroughput reproduces Section 5.2: sensor-update handling
// scales linearly with the number of organizing agents the data is spread
// over (one OA sustains a fixed rate; k OAs sustain ~k times that).
func BenchmarkUpdateThroughput(b *testing.B) {
	for _, oas := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("OAs-%d", oas), func(b *testing.B) {
			cfg := benchCfg()
			cfg.BlockSites = oas
			c, err := cluster.New(cluster.CentralQueryDistUpdate, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			agents, err := sensor.SplitTargets(c.UpdatePaths(), 2*oas, c.Net, c.NewResolver)
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			b.SetParallelism(benchClients)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ag := agents[int(next.Add(1))%len(agents)]
				for pb.Next() {
					if err := ag.Send(ag.NextReading()); err != nil {
						b.Errorf("update: %v", err)
						return
					}
				}
			})
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "updates/sec")
			}
		})
	}
}

// BenchmarkFigure7 reproduces Figure 7: query throughput of the four
// architectures under QW-1..QW-4 and QW-Mix.
func BenchmarkFigure7(b *testing.B) {
	archs := []cluster.Architecture{
		cluster.Centralized, cluster.CentralQueryDistUpdate,
		cluster.DistQueryFixed, cluster.Hierarchical,
	}
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"QW-1", workload.QW1}, {"QW-2", workload.QW2},
		{"QW-3", workload.QW3}, {"QW-4", workload.QW4},
		{"QW-Mix", workload.QWMix},
	}
	for _, arch := range archs {
		for _, m := range mixes {
			b.Run(fmt.Sprintf("Arch%d/%s", int(arch), m.name), func(b *testing.B) {
				c, err := cluster.New(arch, benchCfg())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				runQueryBench(b, c, m.mix, 0, benchUpdateRate)
			})
		}
	}
}

// BenchmarkFigure8 reproduces Figure 8: under a 90%-skewed workload the
// original hierarchical distribution bottlenecks on one neighborhood site,
// while spreading that neighborhood's blocks over all sites restores
// throughput.
func BenchmarkFigure8(b *testing.B) {
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"QW-1", workload.QW1}, {"QW-2", workload.QW2}, {"QW-Mix2", workload.QWMix2},
	}
	for _, m := range mixes {
		b.Run("Original/"+m.name, func(b *testing.B) {
			c, err := cluster.New(cluster.Hierarchical, benchCfg())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			runQueryBench(b, c, m.mix, 90, 0)
		})
		b.Run("Balanced/"+m.name, func(b *testing.B) {
			c, err := cluster.BalancedSkewCluster(benchCfg(), 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			runQueryBench(b, c, m.mix, 90, 0)
		})
	}
}

// BenchmarkFigure9Migration reproduces the Figure 9 payoff: steady-state
// throughput of the skewed workload before any migration versus after the
// hot neighborhood's blocks have been delegated across all sites.
func BenchmarkFigure9Migration(b *testing.B) {
	b.Run("BeforeMigration", func(b *testing.B) {
		c, err := cluster.New(cluster.Hierarchical, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		runQueryBench(b, c, workload.QW1, 90, 0)
	})
	b.Run("AfterMigration", func(b *testing.B) {
		c, err := cluster.New(cluster.Hierarchical, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		// Delegate the hot neighborhood's blocks round-robin to all sites,
		// then measure.
		hot := c.Sites[cluster.NBSiteName(0, 0)]
		targets := []string{}
		for _, s := range c.Assign.Sites() {
			if s != hot.Name() {
				targets = append(targets, s)
			}
		}
		for blk := 0; blk < c.DB.Cfg.Blocks; blk++ {
			if err := hot.Delegate(c.DB.BlockPath(0, 0, blk), targets[blk%len(targets)]); err != nil {
				b.Fatal(err)
			}
		}
		runQueryBench(b, c, workload.QW1, 90, 0)
	})
}

// BenchmarkFigure10 reproduces Figure 10: caching throughput on
// architecture 4 with no caching, caching with 0% hits (overhead only),
// 50% hits, and 100% hits.
func BenchmarkFigure10(b *testing.B) {
	modes := []struct {
		name     string
		caching  bool
		bypass   bool
		hitRatio float64
	}{
		{"NoCaching", false, false, -1},
		// 0% hits: cache writes happen (overhead is paid) but reads bypass
		// the cache, so no query ever benefits.
		{"Caching0pcHits", true, true, -1},
		{"Caching50pcHits", true, false, 0.5},
		{"Caching100pcHits", true, false, 1},
	}
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"QW-3", workload.QW3}, {"QW-4", workload.QW4}, {"QW-Mix", workload.QWMix},
	}
	for _, mode := range modes {
		for _, m := range mixes {
			b.Run(mode.name+"/"+m.name, func(b *testing.B) {
				cfg := benchCfg()
				cfg.Site.Caching = mode.caching
				cfg.Site.CacheBypass = mode.bypass
				c, err := cluster.New(cluster.Hierarchical, cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				res := c.RunLoad(cluster.LoadOpts{
					Clients:  8,
					Duration: time.Duration(b.N) * 2 * time.Millisecond,
					Mix:      m.mix,
					HitRatio: mode.hitRatio,
				})
				if res.Errors > 0 {
					b.Fatalf("%d query errors", res.Errors)
				}
				b.ReportMetric(res.Throughput(), "queries/sec")
				b.ReportMetric(float64(res.Latency.Mean().Microseconds()), "latency-us")
			})
		}
	}
}

// BenchmarkFigure11 reproduces the micro-benchmarks of Figure 11: time for
// one type-1 query as a function of the entry level (county/city/
// neighborhood), naive vs. fast plan creation, and small vs. large (x8)
// database.
func BenchmarkFigure11(b *testing.B) {
	type variant struct {
		name  string
		db    workload.DBConfig
		naive bool
	}
	variants := []variant{
		{"SmallDB-NaivePlans", workload.PaperSmall(), true},
		{"SmallDB-FastPlans", workload.PaperSmall(), false},
		{"LargeDB-FastPlans", workload.PaperLarge(), false},
	}
	levels := []struct {
		name  string
		entry func(c *cluster.Cluster) string
	}{
		{"county", func(c *cluster.Cluster) string { return cluster.RootSiteName }},
		{"city", func(c *cluster.Cluster) string { return cluster.CitySiteName(0) }},
		{"neighborhood", func(c *cluster.Cluster) string { return cluster.NBSiteName(0, 0) }},
	}
	for _, v := range variants {
		for _, lvl := range levels {
			b.Run(v.name+"/entry-"+lvl.name, func(b *testing.B) {
				cfg := cluster.Config{DB: v.db, Net: transport.SimConfig{Latency: 50 * time.Microsecond}}
				cfg.Site.NaivePlans = v.naive
				c, err := cluster.New(cluster.Hierarchical, cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				fe := c.NewFrontend()
				fe.ForceEntry = lvl.entry(c)
				gen := workload.NewGen(c.DB, workload.QW1, 77)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q, _ := gen.Next()
					if _, err := fe.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCacheLatency reproduces the Section 5.5 latency observation:
// caching cuts type-3/type-4 latencies by bringing data to higher-level
// sites.
func BenchmarkCacheLatency(b *testing.B) {
	for _, caching := range []bool{false, true} {
		name := "NoCaching"
		if caching {
			name = "Caching"
		}
		b.Run(name+"/QW-3", func(b *testing.B) {
			cfg := benchCfg()
			cfg.Site.Caching = caching
			c, err := cluster.New(cluster.Hierarchical, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			fe := c.NewFrontend()
			gen := workload.NewGen(c.DB, workload.QW3, 7)
			// Warm a fixed pool so the cached run actually hits.
			queries := make([]string, 16)
			for i := range queries {
				queries[i], _ = gen.Next()
			}
			for _, q := range queries {
				if _, err := fe.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fe.Query(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- engine micro-benchmarks (not tied to a paper figure, but useful for
// profiling the substrate the figures run on) ---

func BenchmarkQEGEvaluateLocal(b *testing.B) {
	db := workload.Build(workload.PaperSmall())
	dep, err := New(Config{
		ServiceName: workload.Service,
		DocumentXML: db.Doc.String(),
		RootOwner:   "solo",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	q := db.BlockQuery(0, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanCompileFast(b *testing.B) {
	db := workload.Build(workload.PaperSmall())
	q := db.BlockQuery(0, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qeg.CompilePlan(q, db.Schema); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanCompileNaive(b *testing.B) {
	db := workload.Build(workload.PaperSmall())
	q := db.BlockQuery(0, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qeg.NaiveCompile(q, db.Schema); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFragmentSerialize(b *testing.B) {
	db := workload.Build(workload.PaperSmall())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Doc.String()
	}
}

func BenchmarkFragmentParse(b *testing.B) {
	db := workload.Build(workload.PaperSmall())
	text := db.Doc.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmldb.ParseString(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSiteQueryMessage(b *testing.B) {
	// One query message through a single site, end to end (decode, plan,
	// evaluate, serialize), without network latency.
	db := workload.Build(workload.PaperSmall())
	dep, err := New(Config{
		ServiceName: workload.Service,
		DocumentXML: db.Doc.String(),
		RootOwner:   "solo",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	q := db.TwoBlockQuery(0, 0, 0, 1)
	msg := (&site.Message{Kind: site.KindQuery, Query: q}).Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.c.Net.Call("solo", msg); err != nil {
			b.Fatal(err)
		}
	}
}
