// Command irisbench regenerates the experiments of the paper's Section 5
// and prints each figure's rows/series. Absolute numbers reflect the
// simulated substrate (see DESIGN.md); the comparisons within each figure
// are the reproduction target.
//
// Usage:
//
//	irisbench -exp all            # every experiment (several minutes)
//	irisbench -exp fig7 -dur 5s   # one experiment, longer measurement
//
// Experiments: updates, fig7, fig8, fig9, fig10, fig11, latency, faults,
// trace-overhead, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"irisnet/internal/cluster"
	"irisnet/internal/metrics"
	"irisnet/internal/sensor"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
)

var (
	expFlag   = flag.String("exp", "all", "experiment: updates|fig7|fig8|fig9|fig10|fig11|latency|faults|trace-overhead|all")
	durFlag   = flag.Duration("dur", 3*time.Second, "measurement duration per cell")
	clients   = flag.Int("clients", 24, "closed-loop query clients")
	largeFlag = flag.Bool("large", false, "use the x8 database where applicable")
	faultFlag = flag.String("faults", "drop=0.05,stallrate=0.05,stall=40ms",
		"fault injection for -exp faults: drop=<rate>,stallrate=<rate>,stall=<dur>")
)

func main() {
	flag.Parse()
	exps := map[string]func(){
		"updates":        runUpdates,
		"fig7":           runFig7,
		"fig8":           runFig8,
		"fig9":           runFig9,
		"fig10":          runFig10,
		"fig11":          runFig11,
		"latency":        runLatency,
		"faults":         runFaults,
		"trace-overhead": runTraceOverhead,
	}
	order := []string{"updates", "fig7", "fig8", "fig9", "fig10", "fig11", "latency", "faults", "trace-overhead"}
	if *expFlag == "all" {
		for _, name := range order {
			exps[name]()
		}
		return
	}
	fn, ok := exps[*expFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s|all)\n", *expFlag, strings.Join(order, "|"))
		os.Exit(2)
	}
	fn()
}

func baseCfg() cluster.Config {
	cfg := cluster.PaperCalibration(cluster.Config{DB: workload.PaperSmall()})
	if *largeFlag {
		cfg.DB = workload.PaperLarge()
	}
	return cfg
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// runUpdates reproduces Section 5.2: update throughput vs number of OAs.
func runUpdates() {
	header("Section 5.2 — sensor update handling (updates/sec vs #OAs)")
	fmt.Printf("%-8s %14s %12s\n", "OAs", "updates/sec", "per-OA")
	var base float64
	for _, oas := range []int{1, 2, 4, 8} {
		cfg := baseCfg()
		cfg.BlockSites = oas
		c, err := cluster.New(cluster.CentralQueryDistUpdate, cfg)
		fatal(err)
		agents, err := sensor.SplitTargets(c.UpdatePaths(), 4*oas, c.Net, c.NewResolver)
		fatal(err)
		gen := sensor.NewGenerator(agents)
		total := gen.Run(*durFlag)
		rate := float64(total) / durFlag.Seconds()
		if oas == 1 {
			base = rate
		}
		fmt.Printf("%-8d %14.1f %12.1f   (x%.2f of 1-OA rate)\n", oas, rate, rate/float64(oas), rate/base)
		c.Close()
	}
	fmt.Println("Paper: ~200 updates/sec per OA, scaling linearly with #OAs.")
}

// runFig7 reproduces Figure 7.
func runFig7() {
	header("Figure 7 — query throughput (queries/sec), Architectures 1-4 x workloads")
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"QW-1", workload.QW1}, {"QW-2", workload.QW2},
		{"QW-3", workload.QW3}, {"QW-4", workload.QW4},
		{"QW-Mix", workload.QWMix},
	}
	fmt.Printf("%-28s", "")
	for _, m := range mixes {
		fmt.Printf("%10s", m.name)
	}
	fmt.Println()
	for _, arch := range []cluster.Architecture{
		cluster.Centralized, cluster.CentralQueryDistUpdate,
		cluster.DistQueryFixed, cluster.Hierarchical,
	} {
		fmt.Printf("%-28s", fmt.Sprintf("Architecture %d", int(arch)))
		for _, m := range mixes {
			c, err := cluster.New(arch, baseCfg())
			fatal(err)
			res := c.RunLoad(cluster.LoadOpts{
				Clients: *clients, Duration: *durFlag, Mix: m.mix,
				HitRatio: -1, UpdateRate: 200,
			})
			fmt.Printf("%10.1f", res.Throughput())
			c.Close()
		}
		fmt.Println()
	}
	fmt.Println("Paper shape: Arch4 best on QW-Mix (>=60%); Arch3 ~3x Arch2 on QW-1; Arch4 ~25% below Arch3 on QW-1.")
}

// runFig8 reproduces Figure 8.
func runFig8() {
	header("Figure 8 — skewed workload (90% to one neighborhood): original vs balanced")
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"QW-1", workload.QW1}, {"QW-2", workload.QW2}, {"QW-Mix2", workload.QWMix2},
	}
	fmt.Printf("%-24s", "")
	for _, m := range mixes {
		fmt.Printf("%10s", m.name)
	}
	fmt.Println()
	for _, balanced := range []bool{false, true} {
		label := "Original distribution"
		if balanced {
			label = "Balanced distribution"
		}
		fmt.Printf("%-24s", label)
		for _, m := range mixes {
			var c *cluster.Cluster
			var err error
			if balanced {
				c, err = cluster.BalancedSkewCluster(baseCfg(), 0, 0)
			} else {
				c, err = cluster.New(cluster.Hierarchical, baseCfg())
			}
			fatal(err)
			res := c.RunLoad(cluster.LoadOpts{
				Clients: *clients, Duration: *durFlag, Mix: m.mix,
				SkewCity: 0, SkewNB: 0, SkewPct: 90, HitRatio: -1,
			})
			fmt.Printf("%10.1f", res.Throughput())
			c.Close()
		}
		fmt.Println()
	}
	fmt.Println("Paper shape: balanced ~4x original on the skewed workloads.")
}

// runFig9 reproduces Figure 9: throughput over time while the hot
// neighborhood's blocks are delegated one at a time.
func runFig9() {
	header("Figure 9 — dynamic load balancing (queries finished per window)")
	c, err := cluster.New(cluster.Hierarchical, baseCfg())
	fatal(err)
	defer c.Close()
	total := 4 * *durFlag
	window := total / 20
	plan := cluster.MigrationPlan{
		HotCity: 0, HotNB: 0,
		StartAfter: total / 4,
		Interval:   total / 2 / time.Duration(c.DB.Cfg.Blocks),
	}
	tl, res, err := c.RunDynamicLoadBalance(cluster.LoadOpts{
		Clients: *clients, Duration: total, Mix: workload.QW1,
		SkewCity: 0, SkewNB: 0, SkewPct: 90, HitRatio: -1,
	}, plan, window)
	fatal(err)
	start := plan.StartAfter
	end := plan.StartAfter + time.Duration(c.DB.Cfg.Blocks)*plan.Interval
	fmt.Printf("window=%v, delegation active %v..%v (marked *)\n", window, start, end)
	var before, after float64
	var nb, na int
	for i, n := range tl.Windows() {
		t := time.Duration(i) * window
		marker := " "
		if t >= start && t <= end {
			marker = "*"
		}
		bar := strings.Repeat("#", int(n)/2)
		fmt.Printf("t=%-8v %s %5d %s\n", t, marker, n, bar)
		if t < start {
			before += float64(n)
			nb++
		}
		if t > end {
			after += float64(n)
			na++
		}
	}
	if nb > 0 && na > 0 {
		fmt.Printf("steady-state: before=%.1f/window after=%.1f/window (x%.2f)\n",
			before/float64(nb), after/float64(na), (after/float64(na))/(before/float64(nb)))
	}
	fmt.Printf("total queries: %d, errors: %d\n", res.Completed, res.Errors)
	fmt.Println("Paper shape: throughput ~3x after delegation completes, queries answered throughout.")
}

// runFig10 reproduces Figure 10.
func runFig10() {
	header("Figure 10 — caching throughput (Architecture 4)")
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"QW-1", workload.QW1}, {"QW-2", workload.QW2},
		{"QW-3", workload.QW3}, {"QW-4", workload.QW4},
		{"QW-Mix", workload.QWMix},
	}
	modes := []struct {
		name     string
		caching  bool
		bypass   bool
		hitRatio float64
	}{
		{"No caching", false, false, -1},
		{"Caching, no hits", true, true, -1},
		{"Caching, 50% hits", true, false, 0.5},
		{"Caching, 100% hits", true, false, 1.0},
	}
	fmt.Printf("%-22s", "")
	for _, m := range mixes {
		fmt.Printf("%10s", m.name)
	}
	fmt.Println()
	for _, mode := range modes {
		fmt.Printf("%-22s", mode.name)
		for _, m := range mixes {
			cfg := baseCfg()
			cfg.Site.Caching = mode.caching
			cfg.Site.CacheBypass = mode.bypass
			c, err := cluster.New(cluster.Hierarchical, cfg)
			fatal(err)
			res := c.RunLoad(cluster.LoadOpts{
				Clients: *clients, Duration: *durFlag, Mix: m.mix,
				HitRatio: mode.hitRatio,
			})
			fmt.Printf("%10.1f", res.Throughput())
			c.Close()
		}
		fmt.Println()
	}
	fmt.Println("Paper shape: minimal overhead with no hits; 100% hits REDUCES QW-3/QW-4 (top sites bottleneck);")
	fmt.Println("             caching improves QW-Mix (idle top sites absorb load).")
}

// runFig11 reproduces the Figure 11 micro-benchmarks: per-stage time for a
// type-1 query by entry level, plan-creation mode and database size.
func runFig11() {
	header("Figure 11 — micro-benchmarks: time breakdown per query (ms)")
	type variant struct {
		name  string
		db    workload.DBConfig
		naive bool
	}
	variants := []variant{
		{"Small DB, naive plan creation", workload.PaperSmall(), true},
		{"Small DB, fast plan creation", workload.PaperSmall(), false},
		{"Large DB, fast plan creation", workload.PaperLarge(), false},
	}
	levels := []struct {
		name  string
		entry func() string
	}{
		{"county", func() string { return cluster.RootSiteName }},
		{"city", func() string { return cluster.CitySiteName(0) }},
		{"neighborhood", func() string { return cluster.NBSiteName(0, 0) }},
	}
	for _, v := range variants {
		fmt.Printf("\n--- %s ---\n", v.name)
		fmt.Printf("%-14s %10s %10s %12s %8s %8s\n", "entry", "create", "exec-QEG", "comm", "rest", "total")
		for _, lvl := range levels {
			// Real engine times, no synthetic service costs and no
			// simulated wire latency: like the paper's LAN micro-bench,
			// "communication" is the CPU cost of constructing and
			// deconstructing messages, not propagation delay.
			cfg := cluster.Config{DB: v.db}
			cfg.Site.NaivePlans = v.naive
			c, err := cluster.New(cluster.Hierarchical, cfg)
			fatal(err)
			fe := c.NewFrontend()
			fe.ForceEntry = lvl.entry()
			gen := workload.NewGen(c.DB, workload.QW1, 77)
			n := 200
			lat := metrics.NewHistogram(0)
			for i := 0; i < n; i++ {
				q, _ := gen.Next()
				t0 := time.Now()
				_, err := fe.Query(q)
				fatal(err)
				lat.Observe(time.Since(t0))
			}
			create, exec, comm, rest := breakdownOf(c)
			fmt.Printf("%-14s %10.3f %10.3f %12.3f %8.3f %8.3f\n",
				lvl.name, create, exec, comm, rest, ms(lat.Mean()))
			c.Close()
		}
	}
	fmt.Println("\nPaper shape: direct-to-neighborhood cuts total >50%; naive plan creation dominates the naive")
	fmt.Println("rows; the x8 database adds <20% per-node time.")
}

// breakdownOf sums the per-stage means across sites weighted by the number
// of queries each site handled.
func breakdownOf(c *cluster.Cluster) (create, exec, comm, rest float64) {
	var totalQ int64
	for _, s := range c.Sites {
		q := s.Metrics.Queries.Value()
		if q == 0 {
			continue
		}
		totalQ += q
		create += ms(s.Metrics.Breakdown.Mean("create-plan")) * float64(q)
		exec += ms(s.Metrics.Breakdown.Mean("execute-qeg")) * float64(q)
		comm += ms(s.Metrics.Breakdown.Mean("communication")) * float64(q)
		rest += ms(s.Metrics.Breakdown.Mean("rest")) * float64(q)
	}
	if totalQ == 0 {
		return
	}
	f := float64(totalQ)
	return create / f, exec / f, comm / f, rest / f
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// runLatency reproduces the Section 5.5 latency observation. Unlike the
// throughput experiments this runs at light load (the paper's latency
// numbers are about path length, not queueing): a few closed-loop clients
// over a repeated working set, so cache hits genuinely shorten the path.
func runLatency() {
	header("Section 5.5 — caching effect on latency (ms, mean / p95), light load")
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"QW-3", workload.QW3}, {"QW-4", workload.QW4}, {"QW-Mix", workload.QWMix},
	}
	fmt.Printf("%-14s %18s %18s %10s\n", "workload", "no caching", "caching", "saving")
	for _, m := range mixes {
		var means [2]float64
		var p95s [2]float64
		for i, caching := range []bool{false, true} {
			cfg := baseCfg()
			cfg.Site.Caching = caching
			c, err := cluster.New(cluster.Hierarchical, cfg)
			fatal(err)
			// Identical repeated working set in both runs; with caching on,
			// repeats after the first pass are hits.
			res := c.RunLoad(cluster.LoadOpts{
				Clients: 3, Duration: *durFlag, Mix: m.mix,
				HitRatio: 0.9, WarmPool: 8,
			})
			means[i] = ms(res.Latency.Mean())
			p95s[i] = ms(res.Latency.Quantile(0.95))
			c.Close()
		}
		saving := 100 * (1 - means[1]/means[0])
		fmt.Printf("%-14s %9.1f/%-8.1f %9.1f/%-8.1f %9.1f%%\n",
			m.name, means[0], p95s[0], means[1], p95s[1], saving)
	}
	fmt.Println("Paper: latency reduced 10-33% for type-3/4 and mixed workloads (LAN; more in WANs).")
}

// parseFaults decodes the -faults flag ("drop=0.05,stallrate=0.05,stall=40ms").
func parseFaults(s string) (transport.FaultConfig, error) {
	var cfg transport.FaultConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("bad fault spec %q (want key=value)", part)
		}
		switch k {
		case "drop":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return cfg, fmt.Errorf("bad drop rate %q: %v", v, err)
			}
			cfg.DropRate = f
		case "stallrate":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return cfg, fmt.Errorf("bad stall rate %q: %v", v, err)
			}
			cfg.StallRate = f
		case "stall":
			d, err := time.ParseDuration(v)
			if err != nil {
				return cfg, fmt.Errorf("bad stall duration %q: %v", v, err)
			}
			cfg.Stall = d
		default:
			return cfg, fmt.Errorf("unknown fault key %q (want drop|stallrate|stall)", k)
		}
	}
	return cfg, nil
}

// runFaults measures the robustness layer: the QW-Mix workload on
// architecture 4 with injected drops and stalls on every site, comparing a
// fault-free baseline against the faulty run. Queries carry an end-to-end
// deadline; site-to-site calls time out, retry with backoff and finally
// yield partial answers, so the error rate stays near zero while the
// partial-answer rate absorbs the injected faults.
func runFaults() {
	fc, err := parseFaults(*faultFlag)
	fatal(err)
	header(fmt.Sprintf("Fault tolerance — QW-Mix on Architecture 4 (drop=%.2f stallrate=%.2f stall=%v)",
		fc.DropRate, fc.StallRate, fc.Stall))
	fmt.Printf("%-18s %10s %10s %10s %10s %10s %10s %10s\n",
		"", "q/sec", "mean-ms", "p95-ms", "err%", "partial%", "retries", "ddl-hits")
	scenarios := []struct {
		label             string
		faulty, partition bool
	}{
		{"No faults", false, false},
		{"Injected faults", true, false},
		{"Faults+partition", true, true},
	}
	for _, sc := range scenarios {
		cfg := baseCfg()
		cfg.Seed = 7
		cfg.Site.CallTimeout = 150 * time.Millisecond
		cfg.QueryTimeout = 2 * time.Second
		c, err := cluster.New(cluster.Hierarchical, cfg)
		fatal(err)
		if sc.faulty {
			for name := range c.Sites {
				c.Net.SetFaults(name, fc)
			}
		}
		if sc.partition {
			// One neighborhood site goes dark entirely: its subtree turns
			// into unreachable markers instead of failing the queries.
			c.Net.Partition(cluster.NBSiteName(0, 0))
		}
		res := c.RunLoad(cluster.LoadOpts{
			Clients: *clients, Duration: *durFlag, Mix: workload.QWMix,
			HitRatio: -1,
		})
		var retries, ddl int64
		for _, s := range c.Sites {
			retries += s.Metrics.Retries.Value()
			ddl += s.Metrics.DeadlineHits.Value()
		}
		issued := res.Completed + res.Errors
		errPct := 0.0
		if issued > 0 {
			errPct = 100 * float64(res.Errors) / float64(issued)
		}
		fmt.Printf("%-18s %10.1f %10.1f %10.1f %10.2f %10.2f %10d %10d\n",
			sc.label, res.Throughput(), ms(res.Latency.Mean()), ms(res.Latency.Quantile(0.95)),
			errPct, 100*res.PartialRate(), retries, ddl)
		c.Close()
	}
	fmt.Println("Expected shape: retries absorb drops and stalls (err% ~0, modest latency/throughput cost).")
	fmt.Println("Partitioning a site converts spanning queries into partial answers; only queries that must")
	fmt.Println("ENTER at the dead site hard-fail, after burning their deadline (hence the p95 spike).")
}

// runTraceOverhead measures the cost of distributed tracing: the QW-Mix
// workload on architecture 4 with tracing off, then on (every query carries
// a TraceID, every hop records and returns a span, the frontend assembles
// the tree and discards it). The acceptance bar is <5% throughput loss.
func runTraceOverhead() {
	header("Tracing overhead — QW-Mix on Architecture 4, tracing off vs on")
	fmt.Printf("%-16s %10s %10s %10s\n", "", "q/sec", "mean-ms", "p95-ms")
	var rates [2]float64
	for i, traced := range []bool{false, true} {
		cfg := baseCfg()
		cfg.Seed = 7
		c, err := cluster.New(cluster.Hierarchical, cfg)
		fatal(err)
		res := c.RunLoad(cluster.LoadOpts{
			Clients: *clients, Duration: *durFlag, Mix: workload.QWMix,
			HitRatio: -1, Trace: traced,
		})
		rates[i] = res.Throughput()
		label := "Tracing off"
		if traced {
			label = "Tracing on"
		}
		fmt.Printf("%-16s %10.1f %10.1f %10.1f\n",
			label, res.Throughput(), ms(res.Latency.Mean()), ms(res.Latency.Quantile(0.95)))
		c.Close()
	}
	if rates[0] > 0 {
		fmt.Printf("overhead: %.1f%% throughput loss with tracing on (target <5%%)\n",
			100*(1-rates[1]/rates[0]))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "irisbench:", err)
		os.Exit(1)
	}
}
