package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"irisnet/internal/metrics"
	"irisnet/internal/sensor"
	"irisnet/internal/workload"
)

// LoadResult summarizes one closed-loop run.
type LoadResult struct {
	// Completed is the number of queries finished.
	Completed int64
	// Errors is the number of failed queries.
	Errors int64
	// Partials is the number of completed queries whose answer was partial
	// (at least one subtree unreachable before the deadline).
	Partials int64
	// Elapsed is the measured wall time.
	Elapsed time.Duration
	// Latency is the per-query latency distribution.
	Latency *metrics.Histogram
}

// PartialRate returns the fraction of completed queries that were partial.
func (r LoadResult) PartialRate() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.Partials) / float64(r.Completed)
}

// Throughput returns completed queries per second.
func (r LoadResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// LoadOpts configures a query load run.
type LoadOpts struct {
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Duration is how long to run.
	Duration time.Duration
	// Mix selects query types.
	Mix workload.Mix
	// Skew, when set, sends SkewPct% of type-1/2 queries to one
	// neighborhood.
	SkewCity, SkewNB, SkewPct int
	// HitRatio controls Figure 10's cache-hit probability: negative
	// disables control (plain random stream); 0 forces every query to be
	// previously unseen; 0 < r <= 1 repeats a previously issued query with
	// probability r.
	HitRatio float64
	// UpdateRate, when positive, runs background sensor updates at this
	// aggregate rate (updates/sec) during the query load, as the paper's
	// experiments do ("all architectures use the same number of SAs").
	UpdateRate float64
	// WarmPool is the per-type working-set size seeded into the repeat
	// pool when HitRatio > 0 (default 24).
	WarmPool int
	// Seed bases the per-client RNG seeds.
	Seed int64
	// Trace enables distributed tracing on every query the clients issue
	// (spans are assembled and discarded), for measuring tracing overhead.
	Trace bool
}

// updateWorkers is the number of concurrent sensor-update senders a load
// run's background update stream uses.
const updateWorkers = 8

// RunLoad drives concurrent closed-loop clients against the cluster.
func (c *Cluster) RunLoad(opts LoadOpts) LoadResult {
	return c.runLoad(opts, nil)
}

// runLoad is the one closed-loop client loop behind every load run. tl,
// when non-nil, records the finish time of every completed query.
func (c *Cluster) runLoad(opts LoadOpts, tl *metrics.Timeline) LoadResult {
	if opts.Clients <= 0 {
		opts.Clients = 8
	}
	if opts.Seed == 0 {
		opts.Seed = 99
	}
	res := LoadResult{Latency: metrics.NewHistogram(0)}
	var completed, errs, partials atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup

	stream := newQueryStream(c.DB, opts)
	start := time.Now()
	stopUpdates := c.StartBackgroundUpdates(opts, &stop, &wg)
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			fe := c.NewFrontend()
			fe.Trace = opts.Trace
			for !stop.Load() {
				q := stream.next(id)
				t0 := time.Now()
				ans, err := fe.QueryFull(context.Background(), q)
				if err != nil {
					errs.Add(1)
					continue
				}
				done := time.Now()
				res.Latency.Observe(done.Sub(t0))
				completed.Add(1)
				if ans.Partial() {
					partials.Add(1)
				}
				if tl != nil {
					tl.Record(done)
				}
			}
		}(i)
	}
	time.Sleep(opts.Duration)
	stop.Store(true)
	stopUpdates()
	wg.Wait()
	res.Completed = completed.Load()
	res.Errors = errs.Load()
	res.Partials = partials.Load()
	res.Elapsed = time.Since(start)
	return res
}

// StartBackgroundUpdates launches the rate-limited sensor-update stream
// when opts.UpdateRate > 0, returning a stop function (no-op otherwise).
func (c *Cluster) StartBackgroundUpdates(opts LoadOpts, stop *atomic.Bool, wg *sync.WaitGroup) func() {
	if opts.UpdateRate <= 0 {
		return func() {}
	}
	agents, err := sensor.SplitTargets(c.UpdatePaths(), updateWorkers, c.Net, c.NewResolver)
	if err != nil || len(agents) == 0 {
		return func() {}
	}
	// Tokens fill at the aggregate rate; each worker consumes one token
	// per update so the stream holds the target rate regardless of how
	// slow the receiving sites are.
	interval := time.Duration(float64(time.Second) / opts.UpdateRate)
	if interval < 2*time.Millisecond {
		interval = 2 * time.Millisecond // timer floor; batch below this
	}
	perTick := int(opts.UpdateRate*interval.Seconds() + 0.5)
	if perTick < 1 {
		perTick = 1
	}
	tokens := make(chan struct{}, 4*updateWorkers)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for i := 0; i < perTick; i++ {
					select {
					case tokens <- struct{}{}:
					default: // receivers saturated; drop to hold the rate
					}
				}
			}
		}
	}()
	for _, ag := range agents {
		wg.Add(1)
		go func(ag *sensor.Agent) {
			defer wg.Done()
			for !stop.Load() {
				select {
				case <-done:
					return
				case <-tokens:
					// Errors are counted by the agent and retried on the
					// next reading; mid-migration hiccups are expected.
					_ = ag.Send(ag.NextReading())
				}
			}
		}(ag)
	}
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// queryStream produces queries with optional cache-hit-ratio control.
// With control enabled the stream still honors the mix's type weights:
// both fresh queries and repeats are drawn for a mix-weighted type, so the
// cached and uncached runs of Figure 10 see identical workload shapes.
type queryStream struct {
	mu   sync.Mutex
	gens []*workload.Gen
	rngs []*rand.Rand
	mix  workload.Mix

	hitRatio float64
	seenBy   map[workload.QueryType][]string
	seenSet  map[string]bool
	fresh    *uniqueGen
}

func newQueryStream(db *workload.DB, opts LoadOpts) *queryStream {
	s := &queryStream{
		hitRatio: opts.HitRatio,
		mix:      opts.Mix,
		seenBy:   map[workload.QueryType][]string{},
		seenSet:  map[string]bool{},
	}
	for i := 0; i < opts.Clients; i++ {
		g := workload.NewGen(db, opts.Mix, opts.Seed+int64(i))
		if opts.SkewPct > 0 {
			g.Skew(opts.SkewCity, opts.SkewNB, opts.SkewPct)
		}
		s.gens = append(s.gens, g)
		s.rngs = append(s.rngs, rand.New(rand.NewSource(opts.Seed+1000+int64(i))))
	}
	if opts.HitRatio >= 0 {
		s.fresh = newUniqueGen(db, opts.Mix)
	}
	if opts.HitRatio > 0 {
		// Seed a spread working set per type so that repeats distribute
		// across sites the way the paper's repeated-query experiments do,
		// rather than hammering a single location.
		pool := opts.WarmPool
		if pool <= 0 {
			pool = 24
		}
		for i, w := range opts.Mix.Weights {
			if w == 0 {
				continue
			}
			t := workload.QueryType(i + 1)
			for j := 0; j < pool; j++ {
				q := s.fresh.nextOfType(t)
				if q == "" {
					break
				}
				if !s.seenSet[q] {
					s.seenSet[q] = true
					s.seenBy[t] = append(s.seenBy[t], q)
				}
			}
		}
	}
	return s
}

func (s *queryStream) next(client int) string {
	if s.hitRatio < 0 {
		// Plain random stream; per-client generator, no shared state.
		q, _ := s.gens[client].Next()
		return q
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rngs[client]
	qt := drawType(r, s.mix)
	if pool := s.seenBy[qt]; len(pool) > 0 && r.Float64() < s.hitRatio {
		return pool[r.Intn(len(pool))]
	}
	q := s.fresh.nextOfType(qt)
	if q == "" {
		// Unique query space for this type exhausted; fall back to repeats.
		if pool := s.seenBy[qt]; len(pool) > 0 {
			return pool[r.Intn(len(pool))]
		}
		q, _ = s.gens[client].Next()
		return q
	}
	if !s.seenSet[q] {
		s.seenSet[q] = true
		s.seenBy[qt] = append(s.seenBy[qt], q)
	}
	return q
}

// drawType samples a query type from the mix weights.
func drawType(r *rand.Rand, mix workload.Mix) workload.QueryType {
	total := 0
	for _, w := range mix.Weights {
		total += w
	}
	if total == 0 {
		return workload.Type1
	}
	x := r.Intn(total)
	for i, w := range mix.Weights {
		if x < w {
			return workload.QueryType(i + 1)
		}
		x -= w
	}
	return workload.Type1
}

// uniqueGen enumerates distinct queries of the mix's dominant type in a
// deterministic order, for the "caching with no hits" runs.
type uniqueGen struct {
	db    *workload.DB
	types []workload.QueryType
	ti    int
	idx   map[workload.QueryType]int
}

func newUniqueGen(db *workload.DB, mix workload.Mix) *uniqueGen {
	u := &uniqueGen{db: db, idx: map[workload.QueryType]int{}}
	for i, w := range mix.Weights {
		if w > 0 {
			u.types = append(u.types, workload.QueryType(i+1))
		}
	}
	return u
}

// next returns the next unseen query, or "" when the space is exhausted.
func (u *uniqueGen) next() string {
	for range u.types {
		t := u.types[u.ti%len(u.types)]
		u.ti++
		if q, ok := u.enumerate(t, u.idx[t]); ok {
			u.idx[t]++
			return q
		}
	}
	return ""
}

// nextOfType returns the next unseen query of the given type, or "" when
// that type's space is exhausted.
func (u *uniqueGen) nextOfType(t workload.QueryType) string {
	if q, ok := u.enumerate(t, u.idx[t]); ok {
		u.idx[t]++
		return q
	}
	return ""
}

func (u *uniqueGen) enumerate(t workload.QueryType, i int) (string, bool) {
	cfg := u.db.Cfg
	switch t {
	case workload.Type1:
		total := cfg.Cities * cfg.Neighborhoods * cfg.Blocks
		if i >= total {
			return "", false
		}
		// Location-major order: a small working set spreads uniformly over
		// sites instead of hammering one neighborhood.
		c := i % cfg.Cities
		n := (i / cfg.Cities) % cfg.Neighborhoods
		b := (i / (cfg.Cities * cfg.Neighborhoods)) % cfg.Blocks
		return u.db.BlockQuery(c, n, b), true
	case workload.Type2:
		total := cfg.Cities * cfg.Neighborhoods * cfg.Blocks
		if i >= total {
			return "", false
		}
		c := i % cfg.Cities
		n := (i / cfg.Cities) % cfg.Neighborhoods
		b := (i / (cfg.Cities * cfg.Neighborhoods)) % cfg.Blocks
		return u.db.TwoBlockQuery(c, n, b, (b+1)%cfg.Blocks), true
	case workload.Type3:
		total := cfg.Cities * cfg.Neighborhoods * cfg.Blocks * cfg.Blocks
		if i >= total {
			return "", false
		}
		c := i % cfg.Cities
		n1 := (i / cfg.Cities) % cfg.Neighborhoods
		b1 := (i / (cfg.Cities * cfg.Neighborhoods)) % cfg.Blocks
		b2 := (i / (cfg.Cities * cfg.Neighborhoods * cfg.Blocks)) % cfg.Blocks
		return u.db.TwoNeighborhoodQuery(c, n1, b1, (n1+1)%cfg.Neighborhoods, b2), true
	case workload.Type4:
		total := cfg.Neighborhoods * cfg.Neighborhoods * cfg.Blocks * cfg.Blocks
		if i >= total || cfg.Cities < 2 {
			return "", false
		}
		n1 := i % cfg.Neighborhoods
		n2 := (i / cfg.Neighborhoods) % cfg.Neighborhoods
		b1 := (i / (cfg.Neighborhoods * cfg.Neighborhoods)) % cfg.Blocks
		b2 := (i / (cfg.Neighborhoods * cfg.Neighborhoods * cfg.Blocks)) % cfg.Blocks
		return u.db.TwoCityQuery(0, n1, b1, 1, n2, b2), true
	}
	return "", false
}

// MigrationPlan drives the Figure 9 experiment: while a skewed load runs,
// the blocks of the hot neighborhood are delegated one at a time from
// their neighborhood site to the other sites.
type MigrationPlan struct {
	// HotCity/HotNB identify the overloaded neighborhood.
	HotCity, HotNB int
	// StartAfter is when delegation begins, Interval the gap between
	// single-block delegations.
	StartAfter time.Duration
	Interval   time.Duration
}

// RunDynamicLoadBalance reproduces Figure 9: a skewed type-1 workload runs
// while ownership migrates; the returned timeline counts completed queries
// per window.
func (c *Cluster) RunDynamicLoadBalance(opts LoadOpts, plan MigrationPlan, window time.Duration) (*metrics.Timeline, LoadResult, error) {
	if c.Arch != Hierarchical {
		return nil, LoadResult{}, fmt.Errorf("cluster: dynamic load balancing requires architecture 4")
	}
	tl := metrics.NewTimeline(time.Now(), window)
	var migErr error
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(plan.StartAfter)
		hotSite := c.Sites[NBSiteName(plan.HotCity, plan.HotNB)]
		targets := otherSites(c, hotSite.Name())
		for b := 0; b < c.DB.Cfg.Blocks && !stop.Load(); b++ {
			p := c.DB.BlockPath(plan.HotCity, plan.HotNB, b)
			to := targets[b%len(targets)]
			if err := hotSite.Delegate(p, to); err != nil {
				migErr = err
				return
			}
			time.Sleep(plan.Interval)
		}
	}()
	res := c.runLoad(opts, tl)
	stop.Store(true)
	wg.Wait()
	return tl, res, migErr
}

func otherSites(c *Cluster, except string) []string {
	var out []string
	for _, name := range c.Assign.Sites() {
		if name != except {
			out = append(out, name)
		}
	}
	return out
}
