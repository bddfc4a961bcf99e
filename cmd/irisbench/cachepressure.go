package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"irisnet/internal/cluster"
	"irisnet/internal/fragment"
	"irisnet/internal/metrics"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// runCachePressure measures bounded query-driven caching (BENCH_PR5): a
// caching hierarchy with every query forced through the root site, driven by
// a skewed block-query workload (80% of queries over the hottest 20% of
// blocks). The first arm runs with an unbounded cache and establishes how
// many bytes the root accumulates; the remaining arms re-run the same
// workload with CacheBudgetBytes at descending fractions of that footprint.
//
// Acceptance (the paper's Figure 9 shape — hit ratio vs cache size):
//   - bounded: in every budgeted arm the sampled cache size never exceeds
//     the budget by more than one local-information unit;
//   - graceful: the hit rate declines with the budget in an orderly way —
//     budgets holding at least half the unbounded footprint keep most of
//     the unbounded hit rate, and budgets down to a quarter of it still
//     produce hits (no cliff, no thrash).
//
// Results are printed and written to BENCH_PR5.json for machines.
func runCachePressure() {
	dur := *durFlag
	cl := *clients
	if *shortFlag {
		if dur > 700*time.Millisecond {
			dur = 700 * time.Millisecond
		}
		if cl > 8 {
			cl = 8
		}
	}
	header(fmt.Sprintf("Bounded cache: hit rate vs budget (dur=%v, clients=%d)", dur, cl))

	rep := cachePressureReport{
		Experiment:   "cache-pressure",
		DurationSecs: dur.Seconds(),
		Clients:      cl,
		Short:        *shortFlag,
	}

	fmt.Printf("%-12s %12s %8s %9s %9s %10s %12s %12s\n",
		"arm", "budget", "queries", "p50-ms", "hit%", "evictions", "max-bytes", "final-bytes")
	full := runCacheArm(dur, cl, 0)
	rep.UnboundedBytes = full.MaxCacheBytes
	rep.MaxUnitBytes = full.maxUnit
	rep.Arms = append(rep.Arms, full)

	for _, frac := range []float64{0.75, 0.50, 0.25, 0.10} {
		budget := int64(frac * float64(rep.UnboundedBytes))
		rep.Arms = append(rep.Arms, runCacheArm(dur, cl, budget))
	}

	rep.PassBounded = true
	for _, a := range rep.Arms {
		if !a.BoundOK {
			rep.PassBounded = false
		}
	}
	// Graceful, no-cliff degradation: the curve declines in order (within a
	// small tolerance for run noise), budgets holding at least half the
	// unbounded footprint keep >=60% of the unbounded hit rate, and budgets
	// down to a quarter of it still produce hits at all. A caching bug that
	// thrashes or evicts hot data (a cliff) fails the half-budget check; a
	// broken hit path fails the quarter-budget one.
	rep.PassGraceful = true
	fullRate := rep.Arms[0].HitRatePct
	for i := 1; i < len(rep.Arms); i++ {
		a := rep.Arms[i]
		if a.HitRatePct > rep.Arms[i-1].HitRatePct+10 {
			rep.PassGraceful = false // smaller cache, better hit rate: bogus accounting
		}
		if 2*a.BudgetBytes >= rep.UnboundedBytes && a.HitRatePct < 0.6*fullRate {
			rep.PassGraceful = false
		}
		if 4*a.BudgetBytes >= rep.UnboundedBytes && a.HitRatePct <= 0 {
			rep.PassGraceful = false
		}
	}
	rep.Pass = rep.PassBounded && rep.PassGraceful

	fmt.Printf("\nacceptance: bounded (max <= budget + one unit of %d B) = %v; "+
		"graceful degradation (ordered decline, no cliff) = %v\n",
		rep.MaxUnitBytes, rep.PassBounded, rep.PassGraceful)
	fmt.Printf("overall pass=%v\n", rep.Pass)

	buf, err := json.MarshalIndent(rep, "", "  ")
	fatal(err)
	buf = append(buf, '\n')
	fatal(os.WriteFile("BENCH_PR5.json", buf, 0o644))
	fmt.Println("wrote BENCH_PR5.json")
}

type cachePressureReport struct {
	Experiment     string          `json:"experiment"`
	DurationSecs   float64         `json:"duration_secs"`
	Clients        int             `json:"clients"`
	Short          bool            `json:"short"`
	UnboundedBytes int64           `json:"unbounded_cache_bytes"`
	MaxUnitBytes   int64           `json:"max_unit_bytes"`
	Arms           []cacheArmStats `json:"arms"`
	PassBounded    bool            `json:"pass_bounded"`
	PassGraceful   bool            `json:"pass_graceful"`
	Pass           bool            `json:"pass"`
}

type cacheArmStats struct {
	Arm             string  `json:"arm"`
	BudgetBytes     int64   `json:"budget_bytes"`
	Queries         int64   `json:"queries"`
	Errors          int64   `json:"errors"`
	P50Ms           float64 `json:"p50_ms"`
	HitRatePct      float64 `json:"hit_rate_pct"`
	Evictions       int64   `json:"evictions"`
	MaxCacheBytes   int64   `json:"max_cache_bytes"`
	FinalCacheBytes int64   `json:"final_cache_bytes"`
	BoundOK         bool    `json:"bound_ok"`

	maxUnit int64
}

// maxLocalInfoUnit is the size of the largest single local-information unit
// in the database — the budget overshoot the accounting bound allows.
func maxLocalInfoUnit(db *workload.DB) int64 {
	var max int64
	db.Doc.Walk(func(n *xmldb.Node) bool {
		if n.ID() != "" || n.Parent == nil {
			if b := int64(fragment.LocalInfoBytes(n)); b > max {
				max = b
			}
		}
		return true
	})
	return max
}

// runCacheArm runs the skewed workload once with the given per-site budget
// (0 = unbounded) and reports hit rate, evictions and the cache-size bound.
func runCacheArm(dur time.Duration, cl int, budget int64) cacheArmStats {
	cfg := cluster.Config{
		DB:      workload.PaperSmall(),
		Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond,
		Seed: 7, Caching: true, ForceEntry: cluster.RootSiteName,
		CacheBudgetBytes: budget,
	}
	c, err := cluster.New(cluster.Hierarchical, cfg)
	fatal(err)
	defer c.Close()
	db := c.DB

	maxUnit := maxLocalInfoUnit(db)

	// Sample every caching site's published cache size while the load runs.
	var (
		sampleMu sync.Mutex
		maxBytes int64
		stop     = make(chan struct{})
		done     = make(chan struct{})
	)
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				for _, s := range c.Sites {
					if b := int64(s.CacheBytes()); b > 0 {
						sampleMu.Lock()
						if b > maxBytes {
							maxBytes = b
						}
						sampleMu.Unlock()
					}
				}
			}
		}
	}()

	nBlocks := db.Cfg.Cities * db.Cfg.Neighborhoods * db.Cfg.Blocks
	hot := nBlocks / 5
	if hot == 0 {
		hot = 1
	}
	queries, errs, lat := closedLoop(c, cl, dur, func(client, seq int) string {
		i := client*7919 + seq*104729
		var b int
		if i%100 < 80 {
			b = (i / 100) % hot // hot 20% of blocks take 80% of queries
		} else {
			b = hot + (i/100)%(nBlocks-hot)
		}
		ci := b % db.Cfg.Cities
		n := (b / db.Cfg.Cities) % db.Cfg.Neighborhoods
		blk := (b / (db.Cfg.Cities * db.Cfg.Neighborhoods)) % db.Cfg.Blocks
		return db.BlockQuery(ci, n, blk)
	})
	close(stop)
	<-done

	st := cacheArmStats{
		Arm: "unbounded", BudgetBytes: budget,
		Queries: queries, Errors: errs, P50Ms: ms(lat.Quantile(0.5)),
		maxUnit: maxUnit,
	}
	if budget > 0 {
		st.Arm = fmt.Sprintf("budget-%dK", budget/1024)
	}
	// Hit rate at the forced entry point (the paper's Figure 9 metric: a
	// hit means the root answered entirely from owned+cached data).
	root := c.Sites[cluster.RootSiteName]
	hits, misses := root.Metrics.CacheHits.Value(), root.Metrics.CacheMisses.Value()
	if hits+misses > 0 {
		st.HitRatePct = 100 * float64(hits) / float64(hits+misses)
	}
	for _, s := range c.Sites {
		st.Evictions += s.Metrics.Evictions.Value()
		if b := int64(s.CacheBytes()); b > st.FinalCacheBytes {
			st.FinalCacheBytes = b
		}
	}
	sampleMu.Lock()
	st.MaxCacheBytes = maxBytes
	sampleMu.Unlock()
	st.BoundOK = budget == 0 || st.MaxCacheBytes <= budget+maxUnit

	fmt.Printf("%-12s %12d %8d %9.1f %9.1f %10d %12d %12d\n",
		st.Arm, st.BudgetBytes, st.Queries, st.P50Ms, st.HitRatePct,
		st.Evictions, st.MaxCacheBytes, st.FinalCacheBytes)
	return st
}

// closedLoop drives clients each issuing next(client, seq) for dur.
func closedLoop(c *cluster.Cluster, clientN int, dur time.Duration, next func(client, seq int) string) (int64, int64, *metrics.Histogram) {
	lat := metrics.NewHistogram(0)
	var queries, errs atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < clientN; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			fe := c.NewFrontend()
			for seq := 0; !stop.Load(); seq++ {
				q := next(id, seq)
				t0 := time.Now()
				if _, err := fe.QueryFull(context.Background(), q); err != nil {
					errs.Add(1)
					continue
				}
				lat.Observe(time.Since(t0))
				queries.Add(1)
			}
		}(i)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return queries.Load(), errs.Load(), lat
}
