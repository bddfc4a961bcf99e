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
	// BlockSites is the number of worker sites holding blocks in
	// architectures 2 and 3 (paper: 8, for 9 machines total).
	BlockSites int
	// DNSTTL is the client-side DNS cache TTL.
	DNSTTL time.Duration
	// Seed feeds the simulated network's jitter and fault schedules, making
	// fault-injection runs reproducible. Zero uses the transport default.
	Seed int64
	// QueryTimeout is the end-to-end deadline frontends put on each query;
	// zero means none. Keep Site.CallTimeout well below it so a site can
	// give up on one peer, mark it unreachable and still answer partially
	// in time.
	QueryTimeout time.Duration
	// ForceEntry routes every frontend query through the named site
	// regardless of architecture (e.g. the root site, to concentrate misses
	// on one cache). Empty keeps the per-architecture default.
	ForceEntry string
	// Site is the template every site of the cluster is built from: each
	// site option is a site.Config field and is set here (Site.Caching,
	// Site.CallTimeout, ...). The cluster fills Name, Service, Net, DNS,
	// Registry and Schema per site, and a non-empty Site.DataDir becomes
	// DataDir/<site-name>. Frontends share Site.Clock and Site.Retry.
	Site site.Config
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
	return start(arch, cfg, db, buildAssignment(arch, db, cfg))
}

// start partitions db by assign and runs one site per partition.
func start(arch Architecture, cfg Config, db *workload.DB, assign *fragment.Assignment) (*Cluster, error) {
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
	for _, name := range assign.Sites() {
		if _, err := c.startSite(c.siteConfig(name), stores[name], owned[name]); err != nil {
			return nil, err
		}
	}
	c.Registry.RegisterSubtree(db.Doc, workload.Service, assign.OwnerOf)
	return c, nil
}

// siteConfig is the one place a cluster site is configured: the Cfg.Site
// template with this site's identity and the cluster's wiring filled in.
func (c *Cluster) siteConfig(name string) site.Config {
	sc := c.Cfg.Site
	sc.Name = name
	sc.Service = workload.Service
	sc.Net = c.Net
	sc.DNS = c.NewResolver()
	sc.Registry = c.Registry
	sc.Schema = c.DB.Schema
	if sc.DataDir != "" {
		sc.DataDir = filepath.Join(sc.DataDir, name)
	}
	return sc
}

// startSite builds a site, recovers it from its data directory (or loads
// store and owned when it has none) and starts it.
func (c *Cluster) startSite(sc site.Config, store *fragment.Store, owned []xmldb.IDPath) (*site.Site, error) {
	s := site.New(sc, workload.RootName, workload.RootID)
	if store == nil {
		store = fragment.NewStore(workload.RootName, workload.RootID)
	}
	if _, err := s.Recover(store, owned); err != nil {
		return nil, fmt.Errorf("cluster: recovering site %s: %w", sc.Name, err)
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	s.Register(c.Metrics)
	c.Sites[sc.Name] = s
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
	if c.Cfg.Site.Clock != nil {
		f.Clock = c.Cfg.Site.Clock
	}
	f.Timeout = c.Cfg.QueryTimeout
	f.Retry = c.Cfg.Site.Retry
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
	return start(Hierarchical, cfg, db, assign)
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
	cfg.Site.QueryWork = 2 * time.Millisecond
	cfg.Site.PerNodeWork = 40 * time.Microsecond
	cfg.Site.UpdateWork = 4 * time.Millisecond
	return cfg
}
