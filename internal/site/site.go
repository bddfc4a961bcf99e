package site

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/metrics"
	"irisnet/internal/naming"
	"irisnet/internal/qeg"
	"irisnet/internal/trace"
	"irisnet/internal/transport"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

// Config configures an organizing agent.
type Config struct {
	// Name is the site's transport address.
	Name string
	// Service is the DNS suffix of the sensor service (e.g.
	// "parking.intel-iris.net").
	Service string
	// Net delivers messages between sites.
	Net transport.Network
	// DNS resolves IDable-node names to sites.
	DNS *naming.Client
	// Registry is the authoritative DNS store, written during migrations.
	Registry naming.Store
	// Schema is the service's document schema.
	Schema *xpath.Schema
	// Caching controls whether answer fragments returned by subqueries are
	// merged into the site database (the paper's aggressive caching).
	Caching bool
	// CacheBypass makes query evaluation ignore cached (complete) data,
	// always re-fetching from owners, while cache writes still happen when
	// Caching is set. It implements the Section 5.5 bypass suggestion and
	// the "caching with no hits" condition of Figure 10.
	CacheBypass bool
	// NaivePlans selects the unoptimized per-query XSLT generation path
	// (Figure 11's "naive XSLT creation").
	NaivePlans bool
	// CPUSlots is the number of concurrent CPU-bound message-processing
	// slots (1 models the paper's single-CPU machines).
	CPUSlots int
	// QueryWork, PerNodeWork and UpdateWork model the paper's heavier XML
	// backend (Xindice + Xalan cost milliseconds per operation where this
	// native engine costs microseconds): each query evaluation holds the
	// site's CPU slot for QueryWork plus PerNodeWork per element node in
	// the produced result fragment — so answering from a large cached
	// fragment costs more than forwarding a query onward, the effect
	// behind Figure 10 — and each sensor update holds the slot for
	// UpdateWork. Slots are held without burning host CPU, keeping
	// simulated capacity independent of the host's core count. Zero
	// disables the synthetic costs.
	QueryWork   time.Duration
	PerNodeWork time.Duration
	UpdateWork  time.Duration
	// Clock returns the current time in seconds; nil uses the wall clock.
	Clock func() float64
	// CallTimeout bounds each individual network attempt this site makes
	// (subquery fetches, forwards, migrations). Zero uses
	// transport.DefaultCallTimeout; the query's overall deadline, carried in
	// the message envelope, still caps everything.
	CallTimeout time.Duration
	// Retry shapes the retry loop around those attempts; the zero value
	// uses the transport defaults (3 attempts, exponential backoff).
	Retry transport.RetryPolicy
	// Logger receives structured logs (log/slog) correlated by trace ID.
	// Nil disables logging; the benchmark harness leaves it nil so the hot
	// path pays only a disabled-handler check.
	Logger *slog.Logger
	// BatchByteCap caps the encoded payload size of one KindBatch message;
	// destination groups whose entries exceed it are split into several
	// batch messages. Zero uses DefaultBatchByteCap.
	BatchByteCap int
	// CacheBudgetBytes bounds the accounted in-memory size of cached
	// (non-owned) data. When a cache merge pushes the store past the
	// budget, the coldest local-information units are evicted in the same
	// copy-on-write transaction (see cache.go); zero leaves the cache
	// unbounded, the pre-budget behavior. Only meaningful with Caching.
	CacheBudgetBytes int64
	// SlowQueryThreshold, when positive, logs a structured warning (with
	// trace ID) for every query whose total handling time reaches it.
	SlowQueryThreshold time.Duration
	// StaleAnswerThreshold, when positive, logs a structured warning when
	// an answer used a cached local-information unit at least this old.
	StaleAnswerThreshold time.Duration
	// DataDir, when set, makes the site durable: committed transactions
	// append to a write-ahead log under this directory and periodic
	// checkpoints serialize the sealed snapshot, so a restarted site
	// recovers its owned data and rejoins with a warm cache (durable.go).
	// Empty keeps the prior fully in-memory behavior.
	DataDir string
	// FsyncInterval relaxes WAL durability: zero fsyncs on every acked
	// commit (group commit batches concurrent writers); positive values
	// fsync on a timer instead, trading the tail of un-synced commits on a
	// crash for update throughput. Only meaningful with DataDir.
	FsyncInterval time.Duration
	// CheckpointInterval is the checkpoint cadence; zero uses
	// DefaultCheckpointInterval. Only meaningful with DataDir.
	CheckpointInterval time.Duration
}

// DefaultBatchByteCap bounds one batch message's encoded payload (256 KiB):
// large enough that realistic fan-outs ship as one message, small enough
// that a batch never trips transport frame limits or head-of-line-blocks a
// WAN link for seconds.
const DefaultBatchByteCap = 256 << 10

// Metrics exposes a site's counters to the harness.
type Metrics struct {
	Queries        metrics.Counter // queries and subqueries served
	Subqueries     metrics.Counter // subqueries this site issued
	Updates        metrics.Counter // sensor updates applied
	CacheHits      metrics.Counter // queries fully answered locally
	CacheMisses    metrics.Counter // queries that had to issue subqueries
	Forwards       metrics.Counter // updates forwarded after migration
	Retries        metrics.Counter // network attempts retried after failure
	DeadlineHits   metrics.Counter // attempts that timed out
	PartialAnswers metrics.Counter // results with unreachable subtrees
	// SubqueryRPCs counts network sends on the subquery path: one per batch
	// message, whatever its entry count. Subqueries counts logical
	// subqueries, so Subqueries - SubqueryRPCs is the messaging saved by
	// batching.
	SubqueryRPCs metrics.Counter
	// Coalesced counts subqueries answered by joining another query's
	// in-flight fetch instead of going upstream (caching sites only).
	Coalesced metrics.Counter
	// Evictions counts local-information units evicted by the cache budget
	// policy (sites with CacheBudgetBytes set only).
	Evictions metrics.Counter
	// CacheMergeCommits counts published cache-merge transactions and
	// CacheMergedFragments the sub-answer fragments they installed; the
	// ratio is fragments per commit (a batch answer is one commit).
	CacheMergeCommits    metrics.Counter
	CacheMergedFragments metrics.Counter
	// AggregatePushdowns counts aggregate queries answered in decomposed
	// mode: local partial plus per-site aggregate subrequests.
	AggregatePushdowns metrics.Counter
	// AggregateFallbacks counts aggregate queries answered by raw gather
	// plus local aggregation (inner query outside the decomposable class).
	AggregateFallbacks metrics.Counter
	// GatherBytesSaved accumulates the fragment bytes the aggregate path
	// kept off the wire: per hop, the serialized fragment the raw path
	// would have shipped upstream minus the compact partial actually sent.
	GatherBytesSaved metrics.Counter
	// WALAppends/WALBytes/WALFsyncs count write-ahead-log activity on
	// durable sites; Checkpoints counts completed checkpoints.
	WALAppends  metrics.Counter
	WALBytes    metrics.Counter
	WALFsyncs   metrics.Counter
	Checkpoints metrics.Counter
	// CheckpointSeconds is the per-checkpoint wall-time distribution.
	CheckpointSeconds *metrics.SizeHistogram
	// BatchSize is the entry-count distribution over subquery messages
	// (every subrequest send is a batch message).
	BatchSize *metrics.SizeHistogram
	// AnswerStaleness is the per-answer maximum cached-unit age in
	// seconds (0 for answers assembled purely from owned data) — the
	// headline "how stale are the answers we serve" distribution.
	AnswerStaleness *metrics.SizeHistogram
	// CacheAge is the per-answer mean age of contributing cached units.
	CacheAge *metrics.SizeHistogram
	// PredicateMargin is the per-answer minimum consistency-predicate
	// margin: how many seconds of extra staleness the answer could have
	// absorbed before a freshness predicate failed. Observed only for
	// answers whose evaluation checked a measurable predicate.
	PredicateMargin *metrics.SizeHistogram
	// AnswerCacheBytes/AnswerOwnedBytes/AnswerFetchedBytes split the
	// local-information bytes of served answers by provenance: cached
	// copies, owned units, and fragments fetched from other sites.
	AnswerCacheBytes   metrics.Counter
	AnswerOwnedBytes   metrics.Counter
	AnswerFetchedBytes metrics.Counter
	Breakdown          *metrics.Breakdown
}

// Register registers every counter under the site label, plus live gauges
// for cache occupancy, into a metrics registry for /metrics exposition.
func (s *Site) Register(r *metrics.Registry) {
	l := metrics.Labels{"site": s.cfg.Name}
	m := &s.Metrics
	r.RegisterCounter("irisnet_queries_total", "Queries and subqueries served.", l, &m.Queries)
	r.RegisterCounter("irisnet_subqueries_total", "Subqueries issued to other sites.", l, &m.Subqueries)
	r.RegisterCounter("irisnet_updates_total", "Sensor updates applied.", l, &m.Updates)
	r.RegisterCounter("irisnet_cache_hits_total", "Queries fully answered from local/cached data.", l, &m.CacheHits)
	r.RegisterCounter("irisnet_cache_misses_total", "Queries that had to issue subqueries.", l, &m.CacheMisses)
	r.RegisterCounter("irisnet_forwards_total", "Messages forwarded after an ownership migration.", l, &m.Forwards)
	r.RegisterCounter("irisnet_retries_total", "Network attempts retried after failure.", l, &m.Retries)
	r.RegisterCounter("irisnet_deadline_hits_total", "Network attempts that ran into a deadline.", l, &m.DeadlineHits)
	r.RegisterCounter("irisnet_partial_answers_total", "Results returned with unreachable subtrees.", l, &m.PartialAnswers)
	r.RegisterCounter("irisnet_subquery_rpcs_total", "Network sends on the subquery path (one per batch message).", l, &m.SubqueryRPCs)
	r.RegisterCounter("irisnet_coalesced_subqueries_total", "Subqueries answered by joining an in-flight fetch.", l, &m.Coalesced)
	r.RegisterCounter("irisnet_cache_evictions_total", "Cached local-information units evicted by the budget policy.", l, &m.Evictions)
	r.RegisterCounter("irisnet_cache_merge_commits_total", "Cache-merge transactions published (one per upstream answer).", l, &m.CacheMergeCommits)
	r.RegisterCounter("irisnet_cache_merged_fragments_total", "Sub-answer fragments installed by cache-merge transactions.", l, &m.CacheMergedFragments)
	r.RegisterCounter("irisnet_aggregate_pushdowns_total", "Aggregate queries answered with decomposed partial aggregation.", l, &m.AggregatePushdowns)
	r.RegisterCounter("irisnet_aggregate_fallbacks_total", "Aggregate queries answered via raw gather plus local aggregation.", l, &m.AggregateFallbacks)
	r.RegisterCounter("irisnet_gather_bytes_saved_total", "Fragment bytes kept off the wire by partial aggregation.", l, &m.GatherBytesSaved)
	r.RegisterCounter("irisnet_wal_appends_total", "Write-ahead-log records appended.", l, &m.WALAppends)
	r.RegisterCounter("irisnet_wal_bytes_total", "Write-ahead-log bytes appended (framed).", l, &m.WALBytes)
	r.RegisterCounter("irisnet_wal_fsyncs_total", "Write-ahead-log fsyncs issued.", l, &m.WALFsyncs)
	r.RegisterCounter("irisnet_checkpoints_total", "Durability checkpoints completed.", l, &m.Checkpoints)
	r.RegisterSizeHistogram("irisnet_checkpoint_seconds", "Per-checkpoint wall time.", l, m.CheckpointSeconds)
	r.GaugeFunc("irisnet_recovery_seconds", "Duration of the last restart recovery (0 = cold or in-memory).", l,
		s.RecoverySeconds)
	r.RegisterSizeHistogram("irisnet_subquery_batch_size", "Entries per subquery message.", l, m.BatchSize)
	r.RegisterSizeHistogram("irisnet_answer_staleness_seconds", "Per-answer maximum age of contributing cached units.", l, m.AnswerStaleness)
	r.RegisterSizeHistogram("irisnet_cache_age_seconds", "Per-answer mean age of contributing cached units.", l, m.CacheAge)
	r.RegisterSizeHistogram("irisnet_predicate_margin_seconds", "Per-answer minimum consistency-predicate margin.", l, m.PredicateMargin)
	r.RegisterCounter("irisnet_answer_cache_bytes_total", "Answer bytes served from cached local information.", l, &m.AnswerCacheBytes)
	r.RegisterCounter("irisnet_answer_owned_bytes_total", "Answer bytes served from owned local information.", l, &m.AnswerOwnedBytes)
	r.RegisterCounter("irisnet_answer_fetched_bytes_total", "Answer bytes fetched from other sites.", l, &m.AnswerFetchedBytes)
	r.GaugeFunc("irisnet_cache_bytes", "Accounted bytes of cached (non-owned) local-information units.", l,
		func() float64 { return float64(s.CacheBytes()) })
	r.GaugeFunc("irisnet_cache_budget_bytes", "Configured cache byte budget (0 = unbounded).", l,
		func() float64 { return float64(s.cfg.CacheBudgetBytes) })
	r.GaugeFunc("irisnet_store_nodes", "Element nodes in the site database.", l,
		func() float64 { return float64(s.StoreSize()) })
	r.GaugeFunc("irisnet_cached_fragments", "Complete (cached, non-owned) IDable nodes in the store.", l,
		func() float64 { return float64(s.CachedFragments()) })
	r.GaugeFunc("irisnet_owned_nodes", "IDable nodes this site owns.", l,
		func() float64 { return float64(s.ownedCount()) })
	r.RegisterCounter("irisnet_qeg_plan_cache_misses_total", "Queries whose shape had no cached plan template and was compiled.", l, &s.compiler.Misses)
	r.GaugeFunc("irisnet_qeg_plan_shapes", "Query shapes whose plan templates the site caches.", l,
		func() float64 { return float64(s.compiler.Shapes()) })
}

// siteState is one immutable version of everything a reader needs in a
// single consistent view: the sealed store plus the ownership and
// forwarding tables that must agree with it. Writers build a new siteState
// (copy-on-write for the store, copied maps when the tables change) and
// publish it with one atomic store, so a query never observes a store that
// disagrees with the ownership tables.
type siteState struct {
	store    *fragment.Store
	owned    map[string]bool
	migrated map[string]string // old-owner forwarding table: ID-path key -> new owner
}

// Site is one organizing agent.
//
// Concurrency model (DESIGN.md §9): readers — query evaluation, admin and
// debug views, occupancy gauges — load the current siteState with one
// atomic pointer read and never lock. Writers — sensor updates, cache
// merges, migrations, schema changes, evictions — serialize on wmu, build
// the next version via fragment.COW path-copying, and publish it
// atomically; because each writer starts from the version the previous
// writer published, no writer can lose another's changes.
type Site struct {
	cfg      Config
	log      *slog.Logger
	cpu      *transport.CPU
	compiler *qeg.Compiler
	call     *transport.Caller

	// rawKind and aggKind are the two families of subrequest the one
	// dispatcher serves (dispatch.go): raw subqueries, whose fetched
	// fragments are cached before their flights retire, and aggregate
	// subrequests, whose partial states are only combined.
	rawKind *subKind[rawAnswer]
	aggKind *subKind[aggAnswer]

	// cache is the budget/eviction policy state; nil unless the site
	// caches with CacheBudgetBytes set (cache.go).
	cache        *cacheManager
	stopPressure chan struct{}
	stopOnce     sync.Once

	// dur is the durability engine; nil unless cfg.DataDir is set
	// (durable.go). Assigned before Start, never mutated after.
	dur *durability
	// loopWG tracks the site's own background loops (cache pressure,
	// checkpointing) so Stop can wait for a leak-free shutdown.
	loopWG sync.WaitGroup

	// wmu serializes writers; readers never take it.
	wmu   sync.Mutex
	state atomic.Pointer[siteState]

	Metrics Metrics
}

// New creates a site with an empty store rooted at the given document root.
func New(cfg Config, rootName, rootID string) *Site {
	if cfg.Clock == nil {
		cfg.Clock = func() float64 { return float64(time.Now().UnixNano()) / 1e9 }
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(noopHandler{})
	}
	cfg.Logger = cfg.Logger.With("site", cfg.Name)
	if cfg.BatchByteCap <= 0 {
		cfg.BatchByteCap = DefaultBatchByteCap
	}
	s := &Site{
		cfg:          cfg,
		log:          cfg.Logger,
		cpu:          transport.NewCPU(cfg.CPUSlots),
		compiler:     qeg.NewCompiler(cfg.Schema, cfg.NaivePlans),
		stopPressure: make(chan struct{}),
	}
	s.rawKind = &subKind[rawAnswer]{name: KindQuery, flights: newFlightGroup[fetched[rawAnswer]](),
		decode: decodeRaw, landed: s.cacheFetched}
	s.aggKind = &subKind[aggAnswer]{name: KindAggregate, entryKind: KindAggregate,
		flights: newFlightGroup[fetched[aggAnswer]](), decode: decodeAgg}
	if cfg.Caching && cfg.CacheBudgetBytes > 0 {
		s.cache = newCacheManager()
	}
	s.state.Store(&siteState{
		store:    fragment.NewStore(rootName, rootID).Seal(),
		owned:    map[string]bool{},
		migrated: map[string]string{},
	})
	s.Metrics.Breakdown = metrics.NewBreakdown()
	s.Metrics.BatchSize = metrics.NewSizeHistogram(0)
	s.Metrics.AnswerStaleness = metrics.NewSizeHistogram(0)
	s.Metrics.CacheAge = metrics.NewSizeHistogram(0)
	s.Metrics.PredicateMargin = metrics.NewSizeHistogram(0)
	s.Metrics.CheckpointSeconds = metrics.NewSizeHistogram(0)
	s.call = &transport.Caller{
		Net:        cfg.Net,
		Policy:     cfg.Retry,
		Budget:     transport.NewRetryBudget(0, 0),
		Timeout:    cfg.CallTimeout,
		OnRetry:    s.Metrics.Retries.Inc,
		OnDeadline: s.Metrics.DeadlineHits.Inc,
	}
	return s
}

// Load installs an initial store and owned set produced by
// fragment.Partition. The store is sealed: from here on every mutation
// goes through the copy-on-write write path.
func (s *Site) Load(store *fragment.Store, owned []xmldb.IDPath) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	o := make(map[string]bool, len(owned))
	for _, p := range owned {
		o[p.Key()] = true
	}
	s.state.Store(&siteState{store: store.Seal(), owned: o, migrated: map[string]string{}})
}

// publishLocked swaps in the next version. Callers hold wmu.
func (s *Site) publishLocked(st *siteState) { s.state.Store(st) }

// Start registers the site on the network and starts its background loops
// (cache pressure on budgeted caching sites, checkpointing on durable ones).
func (s *Site) Start() error {
	if err := s.cfg.Net.Register(s.cfg.Name, s.Handle); err != nil {
		return err
	}
	if s.cache != nil {
		s.loopWG.Add(1)
		go s.pressureLoop()
	}
	if s.dur != nil {
		s.loopWG.Add(1)
		go s.dur.loop()
	}
	return nil
}

// Stop unregisters the site and shuts it down cleanly: background loops are
// waited out (leak-free), and on durable sites a final checkpoint is written
// before the WAL closes.
func (s *Site) Stop() { s.shutdown(false) }

// Crash is Stop without graceful durability: the WAL file descriptor is
// abandoned mid-stream with no final fsync or checkpoint, simulating
// kill -9 for recovery tests and the durability experiment. Everything in
// the OS page cache at that instant survives; nothing else does.
func (s *Site) Crash() { s.shutdown(true) }

func (s *Site) shutdown(crash bool) {
	s.stopOnce.Do(func() {
		close(s.stopPressure)
		if s.dur != nil {
			close(s.dur.stop)
		}
	})
	s.cfg.Net.Unregister(s.cfg.Name)
	s.loopWG.Wait()
	if s.dur != nil {
		s.dur.finish(crash)
	}
}

// Name returns the site's transport name.
func (s *Site) Name() string { return s.cfg.Name }

// StoreSnapshot returns a deep, mutable copy of the site database
// (tests/tools).
func (s *Site) StoreSnapshot() *fragment.Store {
	return s.state.Load().store.Clone()
}

// OwnedPaths returns the keys of owned nodes (tests/tools).
func (s *Site) OwnedPaths() []string {
	st := s.state.Load()
	out := make([]string, 0, len(st.owned))
	for k := range st.owned {
		out = append(out, k)
	}
	return out
}

// StoreSize returns the number of element nodes in the site database.
func (s *Site) StoreSize() int {
	return s.state.Load().store.Size()
}

// CachedFragments returns the number of complete, non-owned IDable nodes in
// the store — the cache occupancy /metrics and /debug/fragment report.
func (s *Site) CachedFragments() int {
	return s.state.Load().store.CachedCount()
}

func (s *Site) ownedCount() int {
	return len(s.state.Load().owned)
}

// DebugInfo is the /debug/fragment view of one site: what it owns, how big
// its store is, how much of it is cache, and where migrated subtrees went.
type DebugInfo struct {
	Site            string            `json:"site"`
	StoreNodes      int               `json:"storeNodes"`
	CachedFragments int               `json:"cachedFragments"`
	CacheBytes      int64             `json:"cacheBytes"`
	CacheBudget     int64             `json:"cacheBudgetBytes,omitempty"`
	Owned           []string          `json:"owned"`
	Forwarding      map[string]string `json:"forwarding,omitempty"`
}

// Stats is a point-in-time snapshot of a site's counters, serialized into
// the /debug/cluster federated view so a whole deployment's serving and
// freshness behavior is scrapeable from any admin endpoint.
type Stats struct {
	Queries            int64   `json:"queries"`
	Subqueries         int64   `json:"subqueries"`
	Updates            int64   `json:"updates"`
	CacheHits          int64   `json:"cacheHits"`
	CacheMisses        int64   `json:"cacheMisses"`
	Forwards           int64   `json:"forwards"`
	Retries            int64   `json:"retries"`
	PartialAnswers     int64   `json:"partialAnswers"`
	Coalesced          int64   `json:"coalesced"`
	Evictions          int64   `json:"evictions"`
	AnswerCacheBytes   int64   `json:"answerCacheBytes"`
	AnswerOwnedBytes   int64   `json:"answerOwnedBytes"`
	AnswerFetchedBytes int64   `json:"answerFetchedBytes"`
	MaxStalenessSec    float64 `json:"maxStalenessSec"`
}

// Stats snapshots the site's counters; reads are atomic per counter, not
// mutually consistent, which is fine for an observability view.
func (s *Site) Stats() Stats {
	m := &s.Metrics
	return Stats{
		Queries:            m.Queries.Value(),
		Subqueries:         m.Subqueries.Value(),
		Updates:            m.Updates.Value(),
		CacheHits:          m.CacheHits.Value(),
		CacheMisses:        m.CacheMisses.Value(),
		Forwards:           m.Forwards.Value(),
		Retries:            m.Retries.Value(),
		PartialAnswers:     m.PartialAnswers.Value(),
		Coalesced:          m.Coalesced.Value(),
		Evictions:          m.Evictions.Value(),
		AnswerCacheBytes:   m.AnswerCacheBytes.Value(),
		AnswerOwnedBytes:   m.AnswerOwnedBytes.Value(),
		AnswerFetchedBytes: m.AnswerFetchedBytes.Value(),
		MaxStalenessSec:    m.AnswerStaleness.Quantile(1),
	}
}

// Debug snapshots the site's observability view from one published
// version, without blocking queries or writers.
func (s *Site) Debug() DebugInfo {
	st := s.state.Load()
	d := DebugInfo{
		Site:            s.cfg.Name,
		StoreNodes:      st.store.Size(),
		CachedFragments: st.store.CachedCount(),
		CacheBytes:      int64(s.CacheBytes()),
		CacheBudget:     s.cfg.CacheBudgetBytes,
		Owned:           make([]string, 0, len(st.owned)),
	}
	for k := range st.owned {
		d.Owned = append(d.Owned, k)
	}
	sort.Strings(d.Owned)
	if len(st.migrated) > 0 {
		d.Forwarding = make(map[string]string, len(st.migrated))
		for k, v := range st.migrated {
			d.Forwarding[k] = v
		}
	}
	return d
}

// Owns reports whether the site currently owns the node.
func (s *Site) Owns(p xmldb.IDPath) bool {
	return s.state.Load().owned[p.Key()]
}

// Handle is the transport entry point. The effective deadline is the
// tighter of the transport context's and the one stamped in the message
// envelope (which is how deadlines survive real TCP hops).
func (s *Site) Handle(ctx context.Context, payload []byte) ([]byte, error) {
	var resp *Message
	msg, err := DecodeMessage(payload)
	if err != nil {
		return errorMessage(err).Encode(), nil
	}
	if d, ok := msg.Deadline(); ok {
		if cur, has := ctx.Deadline(); !has || d.Before(cur) {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, d)
			defer cancel()
		}
	}
	switch msg.Kind {
	case KindQuery:
		resp = s.handleQuery(ctx, msg, len(payload), nil)
	case KindAggregate:
		resp = s.handleAggregate(ctx, msg, len(payload), nil)
	case KindBatch:
		resp = s.handleBatch(ctx, msg)
	case KindUpdate:
		resp = s.handleUpdate(ctx, msg)
	case KindDelegate:
		resp = s.handleDelegate(msg)
	case KindTake:
		resp = s.handleTake(msg)
	case KindSchema:
		resp = s.handleSchema(msg)
	default:
		resp = errorMessage(fmt.Errorf("site %s: unknown message kind %q", s.cfg.Name, msg.Kind))
	}
	return resp.Encode(), nil
}

// hop is the frame one query-plane request — a raw query or an aggregate,
// arriving alone or as a batch entry — runs in at this site: its span, its
// stage clocks, and what its gather asked for and could not reach.
// handleQuery and handleAggregate differ in what they fold sub-answers into;
// everything around the fold is here.
type hop struct {
	s     *Site
	msg   *Message
	span  *trace.Span // nil unless the request carries a TraceID
	stats *transport.CallStats
	t0    time.Time

	planTime, execTime, commTime time.Duration
	// fanout counts the subrequests issued; zero means the answer came
	// entirely from local and cached data (a cache hit). fetchedBytes is the
	// wire size of the raw sub-answers that came back.
	fanout       int
	fetchedBytes int64
	// unreachable holds the ID-path keys of subtrees whose owners did not
	// answer (partial answer); truncated marks a gather cut at its round bound.
	unreachable map[string]bool
	truncated   bool
	// prov is the answer's staleness ledger; freshness is its wire form.
	prov      qeg.Provenance
	freshness *trace.FreshnessReport
}

// beginHop opens the frame for msg, or forwards msg and returns the answer
// that came back (third result; no frame then). route is the query whose LCA
// addresses the request: the query itself, or an aggregate's inner path.
func (s *Site) beginHop(ctx context.Context, msg *Message, op, route string, reqBytes int) (context.Context, *hop, *Message) {
	h := &hop{s: s, msg: msg}
	// Tracing: a TraceID on the request makes this hop record a span. The
	// per-hop retry/deadline tallies ride in the context so concurrent
	// queries do not race on the site-wide counters.
	if msg.TraceID != "" {
		h.span = &trace.Span{TraceID: msg.TraceID, Site: s.cfg.Name, Query: msg.Query, Op: op, BytesIn: reqBytes}
		ctx, h.stats = transport.WithCallStats(ctx)
	}
	// Stale-DNS forwarding (Section 4): if the request targets a subtree this
	// site delegated away, pass it to the new owner rather than serving a
	// stale copy — the old owner "has the correct DNS entry in its cache".
	if to, ok := s.forwardTarget(route); ok {
		return ctx, nil, h.forward(ctx, to)
	}
	s.Metrics.Queries.Inc()
	h.t0 = time.Now()
	return ctx, h, nil
}

// forward relays the request to the site that now owns its subtree and
// returns that site's answer, with this hop's span wrapped around its span.
func (h *hop) forward(ctx context.Context, to string) *Message {
	s := h.s
	s.Metrics.Forwards.Inc()
	t0 := time.Now()
	h.msg.StampDeadline(ctx)
	respB, err := s.call.Call(ctx, to, h.msg.Encode())
	if err != nil {
		return errorMessage(fmt.Errorf("site %s: forwarding to %s: %w", s.cfg.Name, to, err))
	}
	resp, err := DecodeMessage(respB)
	if err != nil {
		return errorMessage(err)
	}
	s.log.LogAttrs(ctx, slog.LevelDebug, "query forwarded",
		slog.String("trace_id", h.msg.TraceID), slog.String("to", to),
		slog.Duration("dur", time.Since(t0)))
	if h.span != nil {
		h.span.Op = "forward"
		h.span.DurationUS = time.Since(t0).Microseconds()
		finishSpan(h.span, h.stats)
		if resp.Span != nil {
			h.span.Children = append(h.span.Children, resp.Span)
		}
		resp.Span = h.span
	}
	return resp
}

// compile is plan creation (Figure 11: "Creating the XSLT query").
func (h *hop) compile(query string) ([]*qeg.Plan, error) {
	var plans []*qeg.Plan
	var err error
	tp := time.Now()
	h.s.cpu.Do(func() {
		plans, err = h.s.compiler.Compile(query)
	})
	h.planTime = time.Since(tp)
	h.s.Metrics.Breakdown.Add("create-plan", h.planTime)
	return plans, err
}

// Evaluate runs one plan against a store while holding a CPU slot, and holds
// the slot on for the cost model's service time (Config.QueryWork; qeg.Env).
func (h *hop) Evaluate(store *fragment.Store, plan *qeg.Plan, opts qeg.Options) (*qeg.Result, error) {
	cfg := &h.s.cfg
	var res *qeg.Result
	var err error
	te := time.Now()
	h.s.cpu.Do(func() {
		res, err = qeg.Evaluate(store, plan, opts)
		if cfg.QueryWork > 0 || cfg.PerNodeWork > 0 {
			cost := cfg.QueryWork
			if cfg.PerNodeWork > 0 && res != nil {
				cost += time.Duration(res.Nodes) * cfg.PerNodeWork
			}
			spin(cost)
		}
	})
	h.execTime += time.Since(te)
	return res, err
}

// finish closes the frame around the answer res: hit/miss and stage
// accounting, the partial-answer markers, the span and the served log.
// bytesOut is the size of the answer fragment, when there is one.
func (h *hop) finish(ctx context.Context, res *Message, bytesOut int) *Message {
	s := h.s
	cacheHit := h.fanout == 0
	if cacheHit {
		s.Metrics.CacheHits.Inc()
	} else {
		s.Metrics.CacheMisses.Inc()
	}
	total := time.Since(h.t0)
	rest := total - h.execTime - h.commTime
	s.Metrics.Breakdown.Add("execute-qeg", h.execTime)
	s.Metrics.Breakdown.Add("communication", h.commTime)
	s.Metrics.Breakdown.Add("rest", rest)

	res.Truncated = h.truncated
	if len(h.unreachable) > 0 {
		s.Metrics.PartialAnswers.Inc()
		res.Unreachable = make([]string, 0, len(h.unreachable))
		for k := range h.unreachable {
			res.Unreachable = append(res.Unreachable, k)
		}
		sort.Strings(res.Unreachable)
	}
	if span := h.span; span != nil {
		span.DurationUS = total.Microseconds()
		span.AddStage("create-plan", h.planTime)
		span.AddStage("execute-qeg", h.execTime)
		span.AddStage("communication", h.commTime)
		span.AddStage("rest", rest)
		span.CacheHit = cacheHit
		span.Subqueries = h.fanout
		span.BytesOut = bytesOut
		span.Partial = len(res.Unreachable) > 0
		span.Unreachable = res.Unreachable
		span.Truncated = h.truncated
		span.Freshness = h.freshness
		finishSpan(span, h.stats)
		res.Span = span
	}
	s.log.LogAttrs(ctx, slog.LevelDebug, "query served",
		slog.String("trace_id", h.msg.TraceID), slog.String("kind", h.msg.Kind), slog.Duration("dur", total),
		slog.Bool("cache_hit", cacheHit), slog.Int("fanout", h.fanout),
		slog.Int("unreachable", len(res.Unreachable)))
	if s.cfg.SlowQueryThreshold > 0 && total >= s.cfg.SlowQueryThreshold {
		s.log.LogAttrs(ctx, slog.LevelWarn, "slow query",
			slog.String("trace_id", h.msg.TraceID), slog.String("query", clipQuery(h.msg.Query)),
			slog.Duration("dur", total), slog.Duration("threshold", s.cfg.SlowQueryThreshold),
			slog.Bool("cache_hit", cacheHit), slog.Int("fanout", h.fanout))
	}
	return res
}

// handleQuery runs the full query-evaluate-gather loop for a query or
// subquery arriving at this site and returns the assembled answer fragment.
// Subquery failures do not fail the query: the affected subtree is spliced
// in as an unreachable placeholder and listed in the result's Unreachable
// paths (partial answers).
//
// pinned, when non-nil, is the sealed snapshot every plan evaluates against
// — batch entries share one snapshot so all entries of a batch answer from
// a single consistent version. Nil loads the latest published snapshot.
func (s *Site) handleQuery(ctx context.Context, msg *Message, reqBytes int, pinned *fragment.Store) *Message {
	ctx, h, forwarded := s.beginHop(ctx, msg, "query", msg.Query, reqBytes)
	if forwarded != nil {
		return forwarded
	}
	plans, err := h.compile(msg.Query)
	if err != nil {
		return errorMessage(err)
	}
	ans, err := h.gather(ctx, msg.Query, plans, pinned)
	if err != nil {
		return errorMessage(err)
	}
	var out string
	s.cpu.Do(func() {
		out = ans.Root.StringSized(ans.Size())
	})
	return h.finish(ctx, &Message{Kind: KindResult, Fragment: out}, len(out))
}

// Fetch is one gather round's fetch (qeg.Env): the dispatcher fetches the
// subqueries concurrently, coalescing duplicate in-flight fetches and batching
// per destination site, and has cached every fragment before it returns.
func (h *hop) Fetch(ctx context.Context, sqs []qeg.Subquery) []qeg.Fetched {
	out := make([]qeg.Fetched, len(sqs))
	for i, r := range dispatch(ctx, h, h.s.rawKind, sqs) {
		out[i] = qeg.Fetched{Frag: r.val.frag, Unreachable: r.downs, Err: r.err}
		if r.err == nil {
			h.fetchedBytes += int64(r.val.bytes)
		}
	}
	return out
}

// Do runs the gather's splices and marks in a site CPU slot (qeg.Env).
func (h *hop) Do(f func()) { h.s.cpu.Do(f) }

// gather runs the query-evaluate-gather loop (qeg.Gather, with the hop as its
// env) over the plans of one query against one snapshot: pinned, or the
// latest published one. It records what the loop could not reach and the
// answer's staleness ledger.
func (h *hop) gather(ctx context.Context, query string, plans []*qeg.Plan, pinned *fragment.Store) (*fragment.Store, error) {
	s := h.s
	if pinned == nil {
		pinned = s.state.Load().store
	}
	h.prov = *qeg.NewProvenance(s.cfg.Clock())
	prov := &h.prov
	g, err := qeg.Gather(ctx, pinned, plans, h, qeg.Options{Now: s.cfg.Clock, IgnoreCached: s.cfg.CacheBypass, Prov: prov})
	if err != nil {
		return nil, fmt.Errorf("site %s: %w", s.cfg.Name, err)
	}
	h.unreachable = g.Unreachable
	if len(g.Pending) > 0 {
		h.truncated = true
		s.log.LogAttrs(ctx, slog.LevelWarn, "gather truncated",
			slog.String("trace_id", h.msg.TraceID), slog.String("query", clipQuery(query)),
			slog.Int("pending", len(g.Pending)))
	}
	if s.cache != nil {
		// Refresh the recency of every cached unit this answer used, so the
		// budget policy evicts the units queries are not asking for.
		s.cache.touchAnswer(g.Answer.Root, s.cfg.Clock())
	}

	h.freshness = freshnessReport(prov, h.fetchedBytes)
	s.Metrics.AnswerStaleness.Observe(prov.AgeMax)
	s.Metrics.CacheAge.Observe(prov.MeanAge())
	minMargin, hasMargin := prov.MinMargin()
	if hasMargin {
		s.Metrics.PredicateMargin.Observe(minMargin)
	}
	s.Metrics.AnswerCacheBytes.Add(prov.CachedBytes)
	s.Metrics.AnswerOwnedBytes.Add(prov.OwnedBytes)
	s.Metrics.AnswerFetchedBytes.Add(h.fetchedBytes)
	if s.cfg.StaleAnswerThreshold > 0 && prov.AgeMax >= s.cfg.StaleAnswerThreshold.Seconds() {
		attrs := []slog.Attr{
			slog.String("trace_id", h.msg.TraceID), slog.String("query", clipQuery(query)),
			slog.Float64("max_age_sec", prov.AgeMax), slog.Float64("mean_age_sec", prov.MeanAge()),
			slog.Int("cached_units", prov.CachedUnits),
		}
		if hasMargin {
			attrs = append(attrs, slog.Float64("min_margin_sec", minMargin))
		}
		s.log.LogAttrs(ctx, slog.LevelWarn, "stale answer", attrs...)
	}
	return g.Answer, nil
}

// clipQuery bounds query text in log records.
func clipQuery(q string) string {
	if len(q) <= 96 {
		return q
	}
	return q[:95] + "…"
}

// freshnessReport converts the evaluation ledger into the wire-shaped
// report the span carries, sorting margins for deterministic output.
func freshnessReport(p *qeg.Provenance, fetchedBytes int64) *trace.FreshnessReport {
	fr := &trace.FreshnessReport{
		OwnedUnits:   p.OwnedUnits,
		CachedUnits:  p.CachedUnits,
		OwnedBytes:   p.OwnedBytes,
		CachedBytes:  p.CachedBytes,
		FetchedBytes: fetchedBytes,
		AgedUnits:    p.AgedUnits,
		MeanAgeSec:   p.MeanAge(),
		MaxAgeSec:    p.AgeMax,
		MarginChecks: p.MarginChecks,
	}
	if len(p.Margins) > 0 {
		fr.Margins = make([]trace.PredicateMargin, 0, len(p.Margins))
		for pred, st := range p.Margins {
			fr.Margins = append(fr.Margins, trace.PredicateMargin{Pred: pred, Checks: st.Checks, MinSec: st.Min})
		}
		sort.Slice(fr.Margins, func(i, j int) bool { return fr.Margins[i].Pred < fr.Margins[j].Pred })
	}
	return fr
}

// mergeCache folds the fragments of one upstream answer into the site
// database as a single copy-on-write transaction (commitMerge): a cache miss
// costs one commit however many entries its batch answer carries. The
// returned errors are index-aligned with frags, nil when every fragment
// merged. When a fragment is rejected the whole transaction is abandoned
// unpublished and the fragments commit one by one instead, so exactly the
// rejected ones report an error and the rest are still cached.
func (s *Site) mergeCache(frags []*xmldb.Node) []error {
	err := s.commitMerge(frags)
	if err == nil {
		return nil
	}
	errs := make([]error, len(frags))
	if len(frags) == 1 {
		errs[0] = err
		return errs
	}
	for i := range frags {
		errs[i] = s.commitMerge(frags[i : i+1])
	}
	return errs
}

// commitMerge is one merge transaction through the commit point: a merge
// command per fragment and, on budgeted sites, the eviction pass they force,
// as one version and one WAL record (replaying part of it would leave a store
// no live execution could have published). Queries in flight keep reading the
// version they pinned; the next snapshot load sees the cached data. The
// fragments' units are held for the transaction, so no published version
// exceeds the budget by more than the answer being installed (cache.go). A
// rejected fragment returns its error with nothing published.
func (s *Site) commitMerge(frags []*xmldb.Node) error {
	cmds := make([]walOp, 0, len(frags)+1)
	for _, frag := range frags {
		cmds = append(cmds, walOp{Op: opMerge, Cached: s.cache != nil, frag: frag})
	}
	if s.cache != nil {
		cmds = append(cmds, walOp{Op: opEvict})
	}
	// Cache merges are not acked writes; no walWait.
	if _, err := s.commit(cmds...); err != nil {
		return err
	}
	s.Metrics.CacheMergeCommits.Inc()
	s.Metrics.CacheMergedFragments.Add(int64(len(frags)))
	return nil
}

// finishSpan folds the context-scoped resilience tallies into the span.
func finishSpan(span *trace.Span, stats *transport.CallStats) {
	if stats != nil {
		span.Retries = stats.Retries.Load()
		span.DeadlineHits = stats.DeadlineHits.Load()
	}
}

// handleUpdate applies a sensor update to an owned node, stamping it with
// the site clock. Updates for nodes that migrated away are forwarded to
// the site they were delegated to, which forwards on if it delegated them
// again.
func (s *Site) handleUpdate(ctx context.Context, msg *Message) *Message {
	p, err := xmldb.ParseIDPath(msg.Path)
	if err != nil {
		return errorMessage(err)
	}
	var lsn uint64
	s.cpu.Do(func() {
		lsn, err = s.commit(walOp{Op: opUpdate, Fields: msg.Fields, Attrs: msg.Attrs, path: p})
		if err == nil {
			s.updateCost()
		}
	})
	if err == nil {
		// Durability point: the ack leaves only after the commit's WAL
		// record is on disk (group commit — concurrent updates share one
		// fsync). The writer mutex is long released, so fsync latency never
		// serializes other commits.
		if err := s.walWait(lsn); err != nil {
			return errorMessage(err)
		}
		s.Metrics.Updates.Inc()
		return &Message{Kind: KindOK}
	}
	var notOwned *notOwnedError
	if !errors.As(err, &notOwned) {
		return errorMessage(err)
	}
	// Stale-DNS path after a migration: forward by this site's own
	// forwarding table, as for queries; the registry names the owner only
	// of a node this site never delegated. (The site's DNS cache may still
	// name the site itself.)
	s.Metrics.Forwards.Inc()
	owner, ok := notOwned.to, notOwned.to != ""
	if !ok {
		owner, ok = s.cfg.DNS.ResolveExact(p)
	}
	if !ok || owner == s.cfg.Name {
		return errorMessage(fmt.Errorf("site %s: update for unowned node %s with no forwarding target", s.cfg.Name, p))
	}
	s.log.LogAttrs(ctx, slog.LevelDebug, "update forwarded",
		slog.String("trace_id", msg.TraceID), slog.String("path", msg.Path), slog.String("to", owner))
	msg.StampDeadline(ctx)
	respB, err := s.call.Call(ctx, owner, msg.Encode())
	if err != nil {
		return errorMessage(err)
	}
	resp, err := DecodeMessage(respB)
	if err != nil {
		return errorMessage(err)
	}
	return resp
}

func (s *Site) updateCost() {
	if s.cfg.UpdateWork > 0 {
		spin(s.cfg.UpdateWork)
	}
}

// forwardTarget reports whether the query's LCA falls inside a subtree
// this site delegated away, and to whom.
func (s *Site) forwardTarget(query string) (string, bool) {
	st := s.state.Load()
	if len(st.migrated) == 0 {
		return "", false
	}
	lca, err := qeg.LCAPath(query)
	if err != nil {
		return "", false
	}
	return forwardIn(st.migrated, lca)
}

// spin holds the caller's CPU slot for d. Sleeping (rather than busy
// waiting) keeps simulated site capacity independent of host core count.
func spin(d time.Duration) {
	time.Sleep(d)
}
