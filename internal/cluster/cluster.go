// Package cluster wires sites, naming and transport into the four sensor
// database architectures of Figure 6 and provides the closed-loop load
// drivers behind every throughput experiment in Section 5.
package cluster

import (
	"fmt"
	"path/filepath"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/metrics"
	"irisnet/internal/naming"
	"irisnet/internal/service"
	"irisnet/internal/site"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// Architecture enumerates Figure 6's alternatives.
type Architecture int

const (
	// Centralized (Figure 6 i): one server holds all data; all queries and
	// updates go to it.
	Centralized Architecture = iota + 1
	// CentralQueryDistUpdate (Figure 6 ii): blocks are spread over worker
	// sites so updates scale, but every query enters at the central server
	// (which simulates a distributed object-relational design with a
	// central hierarchy table).
	CentralQueryDistUpdate
	// DistQueryFixed (Figure 6 iii): same data placement, but the DNS
	// server maps blocks to sites, so queries self-start at block owners.
	DistQueryFixed
	// Hierarchical (Figure 6 iv): IrisNet's choice — neighborhoods, cities
	// and the remaining hierarchy each on their own sites.
	Hierarchical
)

func (a Architecture) String() string {
	switch a {
	case Centralized:
		return "Architecture 1 (centralized)"
	case CentralQueryDistUpdate:
		return "Architecture 2 (central query, distributed update)"
	case DistQueryFixed:
		return "Architecture 3 (distributed query, fixed two-level)"
	case Hierarchical:
		return "Architecture 4 (hierarchical)"
	default:
		return fmt.Sprintf("Architecture %d", int(a))
	}
}

// CentralSite is the name of the central server in architectures 1-3.
const CentralSite = "central"

// Config tunes a simulated cluster.
type Config struct {
	// DB sizes the parking database; zero value uses the paper's 2,400
	// spaces.
	DB workload.DBConfig
	// Latency and Jitter configure the simulated network (one-way).
	Latency time.Duration
	Jitter  time.Duration
	// PerMessage is the fixed per-message transmission overhead charged
	// serially per destination link (see transport.SimConfig.PerMessage).
	PerMessage time.Duration
	// Bandwidth is the simulated link throughput in bytes per second; zero
	// keeps message size free (see transport.SimConfig.Bandwidth).
	Bandwidth float64
	// Caching enables query-result caching at every site.
	Caching bool
	// CacheBudgetBytes bounds each site's accounted cached (non-owned)
	// bytes; over budget, cold local-information units are evicted. Zero
	// leaves caches unbounded. Only meaningful with Caching.
	CacheBudgetBytes int64
	// CacheBypass keeps cache writes but ignores cached data on reads
	// (Figure 10's "caching with no hits" and Section 5.5's bypass).
	CacheBypass bool
	// NaivePlans selects naive per-query plan creation everywhere.
	NaivePlans bool
	// CPUSlots is the number of concurrent CPU-bound message-processing
	// slots per site; zero means 1, the paper's single-CPU machines.
	CPUSlots int
	// QueryWork, PerNodeWork and UpdateWork are the synthetic service-time
	// model of the paper's heavier XML backend: a query evaluation holds a
	// site's CPU slot for QueryWork + PerNodeWork x (result nodes); an
	// update holds it for UpdateWork. See site.Config.
	QueryWork   time.Duration
	PerNodeWork time.Duration
	UpdateWork  time.Duration
	// BlockSites is the number of worker sites holding blocks in
	// architectures 2 and 3 (paper: 8, for 9 machines total).
	BlockSites int
	// DNSTTL is the client-side DNS cache TTL.
	DNSTTL time.Duration
	// Clock overrides the consistency clock (nil = wall time).
	Clock func() float64
	// Seed feeds the simulated network's jitter and fault schedules, making
	// fault-injection runs reproducible. Zero uses the transport default.
	Seed int64
	// CallTimeout bounds each site-to-site attempt; zero uses the transport
	// default. Keep it well below QueryTimeout so a site can give up on one
	// peer, mark it unreachable and still answer partially in time.
	CallTimeout time.Duration
	// QueryTimeout is the end-to-end deadline frontends put on each query;
	// zero means none.
	QueryTimeout time.Duration
	// Retry shapes site and frontend retry loops (zero = defaults).
	Retry transport.RetryPolicy
	// BatchByteCap caps one batch message's encoded payload; zero uses
	// site.DefaultBatchByteCap.
	BatchByteCap int
	// ForceEntry routes every frontend query through the named site
	// regardless of architecture (e.g. the root site, to concentrate misses
	// on one cache). Empty keeps the per-architecture default.
	ForceEntry string
	// ReplicaFlushInterval sets how often owners push committed deltas to
	// their read replicas; zero uses site.DefaultReplicaFlushInterval. See
	// site.Config.ReplicaFlushInterval.
	ReplicaFlushInterval time.Duration
	// DataDir, when set, gives every site a durable store under
	// DataDir/<site-name>: committed transactions are WAL-logged and
	// checkpointed, and sites restart warm (see site.Config.DataDir).
	// Empty keeps the prior in-memory behavior.
	DataDir string
	// FsyncInterval relaxes WAL durability to at-most-one-interval of
	// acked-update loss; zero fsyncs on every acked commit (group commit).
	FsyncInterval time.Duration
	// CheckpointInterval is the per-site checkpoint cadence; zero uses
	// site.DefaultCheckpointInterval.
	CheckpointInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.DB.Cities == 0 {
		c.DB = workload.PaperSmall()
	}
	if c.BlockSites == 0 {
		c.BlockSites = 8
	}
	if c.DNSTTL == 0 {
		c.DNSTTL = time.Hour
	}
	if c.CPUSlots == 0 {
		c.CPUSlots = 1
	}
	return c
}

// Cluster is a running simulated deployment.
type Cluster struct {
	Arch     Architecture
	Cfg      Config
	Net      *transport.SimNet
	Registry *naming.Registry
	Sites    map[string]*site.Site
	DB       *workload.DB
	Assign   *fragment.Assignment
	// Metrics is the process-wide metrics registry every site registers
	// into (one label set per site), served by ServeAdmin at /metrics.
	Metrics *metrics.Registry

	// baseStores and baseOwned retain the initial partition per site, so a
	// restart can hand Recover the same cold-start fallback the original
	// start had (recovery only uses it when the data dir is empty or
	// durability is off).
	baseStores map[string]*fragment.Store
	baseOwned  map[string][]xmldb.IDPath
}

// ServeAdmin starts the observability HTTP endpoint (/metrics, /healthz,
// /debug/fragment) for the whole simulated cluster on addr (":0" picks a
// free port) and returns the admin handle plus the bound address.
func (c *Cluster) ServeAdmin(addr string) (*service.Admin, string, error) {
	a := service.NewAdmin(c.Metrics)
	for _, name := range c.Assign.Sites() {
		a.AddSite(c.Sites[name])
	}
	bound, err := a.Serve(addr)
	if err != nil {
		return nil, "", err
	}
	return a, bound, nil
}

// New builds, loads and starts a cluster with the given architecture.
func New(arch Architecture, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	db := workload.Build(cfg.DB)
	assign := buildAssignment(arch, db, cfg)

	c := &Cluster{
		Arch:     arch,
		Cfg:      cfg,
		Net:      transport.NewSimNet(transport.SimConfig{Latency: cfg.Latency, Jitter: cfg.Jitter, PerMessage: cfg.PerMessage, Bandwidth: cfg.Bandwidth, Seed: cfg.Seed}),
		Registry: naming.NewRegistry(),
		Sites:    map[string]*site.Site{},
		DB:       db,
		Assign:   assign,
		Metrics:  metrics.NewRegistry(),
	}

	stores, owned, err := fragment.Partition(db.Doc, assign)
	if err != nil {
		return nil, fmt.Errorf("cluster: partition: %w", err)
	}
	c.baseStores, c.baseOwned = stores, owned
	for _, name := range assign.Sites() {
		if _, err := c.startSite(name); err != nil {
			return nil, err
		}
	}
	c.Registry.RegisterSubtree(db.Doc, workload.Service, assign.OwnerOf)
	return c, nil
}

// siteConfig builds one site's configuration from the cluster settings.
func (c *Cluster) siteConfig(name string) site.Config {
	cfg := c.Cfg
	sc := site.Config{
		Name:                 name,
		Service:              workload.Service,
		Net:                  c.Net,
		DNS:                  c.NewResolver(),
		Registry:             c.Registry,
		Schema:               c.DB.Schema,
		Caching:              cfg.Caching,
		CacheBudgetBytes:     cfg.CacheBudgetBytes,
		CacheBypass:          cfg.CacheBypass,
		NaivePlans:           cfg.NaivePlans,
		CPUSlots:             cfg.CPUSlots,
		QueryWork:            cfg.QueryWork,
		PerNodeWork:          cfg.PerNodeWork,
		UpdateWork:           cfg.UpdateWork,
		Clock:                cfg.Clock,
		CallTimeout:          cfg.CallTimeout,
		Retry:                cfg.Retry,
		BatchByteCap:         cfg.BatchByteCap,
		ReplicaFlushInterval: cfg.ReplicaFlushInterval,
	}
	if cfg.DataDir != "" {
		sc.DataDir = filepath.Join(cfg.DataDir, name)
		sc.FsyncInterval = cfg.FsyncInterval
		sc.CheckpointInterval = cfg.CheckpointInterval
	}
	return sc
}

// startSite builds, recovers (or cold-loads) and starts one site, replacing
// any previous instance under the same name. Used both by New and by
// RestartSite after a crash.
func (c *Cluster) startSite(name string) (*site.Site, error) {
	s := site.New(c.siteConfig(name), workload.RootName, workload.RootID)
	base := c.baseStores[name]
	if base == nil {
		base = fragment.NewStore(workload.RootName, workload.RootID)
	}
	if _, err := s.Recover(base, c.baseOwned[name]); err != nil {
		return nil, fmt.Errorf("cluster: recovering site %s: %w", name, err)
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	// Re-registering after a restart is a no-op (the registry keeps the
	// first series); the fresh Site's own Metrics struct is what the bench
	// harnesses read.
	s.Register(c.Metrics)
	c.Sites[name] = s
	return s, nil
}

// RestartSite rebuilds the named site after a Crash or Stop, recovering
// whatever its data directory holds (warm restart) or falling back to the
// original partition when the cluster runs in-memory. The new instance
// replaces the old one in c.Sites.
func (c *Cluster) RestartSite(name string) (*site.Site, error) {
	old, ok := c.Sites[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown site %q", name)
	}
	old.Stop() // idempotent; ensures the previous instance released the log
	return c.startSite(name)
}

// AddReplicaSite starts an empty site (owning nothing) wired into the
// cluster's network, registry and metrics, ready to subscribe as a read
// replica via owner.AddReadReplica. The site appears in c.Sites so Close
// stops it.
func (c *Cluster) AddReplicaSite(name string) (*site.Site, error) {
	if _, ok := c.Sites[name]; ok {
		return nil, fmt.Errorf("cluster: site %q already exists", name)
	}
	cfg := c.Cfg
	sc := site.Config{
		Name:                 name,
		Service:              workload.Service,
		Net:                  c.Net,
		DNS:                  c.NewResolver(),
		Registry:             c.Registry,
		Schema:               c.DB.Schema,
		CPUSlots:             cfg.CPUSlots,
		QueryWork:            cfg.QueryWork,
		PerNodeWork:          cfg.PerNodeWork,
		UpdateWork:           cfg.UpdateWork,
		Clock:                cfg.Clock,
		CallTimeout:          cfg.CallTimeout,
		Retry:                cfg.Retry,
		ReplicaFlushInterval: cfg.ReplicaFlushInterval,
	}
	if cfg.DataDir != "" {
		sc.DataDir = filepath.Join(cfg.DataDir, name)
		sc.FsyncInterval = cfg.FsyncInterval
		sc.CheckpointInterval = cfg.CheckpointInterval
	}
	s := site.New(sc, workload.RootName, workload.RootID)
	if _, err := s.Recover(fragment.NewStore(workload.RootName, workload.RootID), nil); err != nil {
		return nil, fmt.Errorf("cluster: recovering replica site %s: %w", name, err)
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	s.Register(c.Metrics)
	c.Sites[name] = s
	return s, nil
}

// Close stops all sites.
func (c *Cluster) Close() {
	for _, s := range c.Sites {
		s.Stop()
	}
}

// NewResolver builds a fresh DNS client against the cluster registry.
func (c *Cluster) NewResolver() *naming.Client {
	return naming.NewClient(c.Registry, workload.Service, c.Cfg.DNSTTL, nil)
}

// NewFrontend builds a query frontend. Architectures 1 and 2 route every
// query through the central server (no self-starting).
func (c *Cluster) NewFrontend() *service.Frontend {
	f := service.NewFrontend(c.Net, c.NewResolver())
	if c.Arch == Centralized || c.Arch == CentralQueryDistUpdate {
		f.ForceEntry = CentralSite
	}
	if c.Cfg.ForceEntry != "" {
		f.ForceEntry = c.Cfg.ForceEntry
	}
	if c.Cfg.Clock != nil {
		f.Clock = c.Cfg.Clock
	}
	f.Timeout = c.Cfg.QueryTimeout
	f.Retry = c.Cfg.Retry
	return f
}

// buildAssignment realizes each architecture's logical-to-physical mapping.
func buildAssignment(arch Architecture, db *workload.DB, cfg Config) *fragment.Assignment {
	a := fragment.NewAssignment(CentralSite)
	switch arch {
	case Centralized:
		// Everything on the central server.
	case CentralQueryDistUpdate, DistQueryFixed:
		// Blocks round-robin over worker sites; hierarchy stays central.
		for i, bp := range db.BlockPaths {
			a.Assign(bp, BlockSiteName(i%cfg.BlockSites))
		}
	case Hierarchical:
		a = fragment.NewAssignment(RootSiteName)
		for city := 0; city < db.Cfg.Cities; city++ {
			a.Assign(db.CityPath(city), CitySiteName(city))
			for nb := 0; nb < db.Cfg.Neighborhoods; nb++ {
				a.Assign(db.NeighborhoodPath(city, nb), NBSiteName(city, nb))
			}
		}
	}
	return a
}

// Site name helpers.
func BlockSiteName(i int) string { return fmt.Sprintf("block-site-%d", i) }
func CitySiteName(c int) string  { return fmt.Sprintf("city-site-%d", c) }
func NBSiteName(c, n int) string { return fmt.Sprintf("nb-site-%d-%d", c, n) }

// RootSiteName owns the top of the hierarchy in architecture 4.
const RootSiteName = "root-site"

// BalancedSkewCluster builds the Figure 8 "balanced distribution" variant
// of architecture 4: the blocks of the hot neighborhood are spread across
// all sites instead of living on a single neighborhood site.
func BalancedSkewCluster(cfg Config, hotCity, hotNB int) (*Cluster, error) {
	cfg = cfg.withDefaults()
	db := workload.Build(cfg.DB)
	assign := buildAssignment(Hierarchical, db, cfg)
	all := siteNamesHierarchical(db)
	for b := 0; b < db.Cfg.Blocks; b++ {
		p := db.BlockPath(hotCity, hotNB, b)
		assign.Assign(p, all[b%len(all)])
	}
	c := &Cluster{
		Arch:     Hierarchical,
		Cfg:      cfg,
		Net:      transport.NewSimNet(transport.SimConfig{Latency: cfg.Latency, Jitter: cfg.Jitter, PerMessage: cfg.PerMessage, Bandwidth: cfg.Bandwidth, Seed: cfg.Seed}),
		Registry: naming.NewRegistry(),
		Sites:    map[string]*site.Site{},
		DB:       db,
		Assign:   assign,
		Metrics:  metrics.NewRegistry(),
	}
	stores, owned, err := fragment.Partition(db.Doc, assign)
	if err != nil {
		return nil, err
	}
	c.baseStores, c.baseOwned = stores, owned
	for _, name := range assign.Sites() {
		if _, err := c.startSite(name); err != nil {
			return nil, err
		}
	}
	c.Registry.RegisterSubtree(db.Doc, workload.Service, assign.OwnerOf)
	return c, nil
}

func siteNamesHierarchical(db *workload.DB) []string {
	names := []string{RootSiteName}
	for c := 0; c < db.Cfg.Cities; c++ {
		names = append(names, CitySiteName(c))
		for n := 0; n < db.Cfg.Neighborhoods; n++ {
			names = append(names, NBSiteName(c, n))
		}
	}
	return names
}

// UpdatePaths returns every parking space path (sensor update targets).
func (c *Cluster) UpdatePaths() []xmldb.IDPath { return c.DB.SpacePaths }

// PaperCalibration returns the synthetic-cost settings used by the
// benchmark harness to put per-operation costs in the regime of the
// paper's prototype (Xindice + Xalan on 2 GHz Pentium 4s: a handful of
// milliseconds per query, ~5 ms per sensor update, sub-millisecond LAN).
// The absolute values are not meant to match the paper; they put network,
// query and update costs in the same *ratios* so the figure shapes emerge.
// All values sit above this host's ~1.2 ms sleep-timer floor.
func PaperCalibration(cfg Config) Config {
	cfg.Latency = 1500 * time.Microsecond
	cfg.QueryWork = 2 * time.Millisecond
	cfg.PerNodeWork = 40 * time.Microsecond
	cfg.UpdateWork = 4 * time.Millisecond
	return cfg
}
