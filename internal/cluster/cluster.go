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
	"irisnet/internal/xpath"
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

// dnsTTL is the TTL of every DNS client a cluster hands out: an hour, so
// name lookups stay cached for a whole run unless a delegation re-points
// them.
const dnsTTL = time.Hour

// Config tunes a simulated cluster.
type Config struct {
	// DB sizes the parking database; zero value uses the paper's 2,400
	// spaces.
	DB workload.DBConfig
	// Net is the simulated network every site and frontend shares: the
	// one-way latency that stands in for the paper's LAN, and the seed of
	// its fault schedules (fault-injection runs are reproducible).
	Net transport.SimConfig
	// BlockSites is the number of worker sites holding blocks in
	// architectures 2 and 3 (paper: 8, for 9 machines total).
	BlockSites int
	// QueryTimeout is the end-to-end deadline frontends put on each query;
	// zero means none. Keep Site.CallTimeout well below it so a site can
	// give up on one peer, mark it unreachable and still answer partially
	// in time.
	QueryTimeout time.Duration
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
	return c
}

// Cluster is a running simulated deployment.
type Cluster struct {
	Arch     Architecture
	Cfg      Config
	Net      *transport.SimNet
	Registry *naming.Registry
	Sites    map[string]*site.Site
	// DB is the parking database the cluster was built from; nil for a
	// cluster started from any other document (see Start).
	DB     *workload.DB
	Assign *fragment.Assignment
	// Metrics is the process-wide metrics registry every site registers
	// into (one label set per site), served by ServeAdmin at /metrics.
	Metrics *metrics.Registry

	service string
	schema  *xpath.Schema
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
	return startParking(arch, cfg, db, buildAssignment(arch, db, cfg))
}

// startParking starts the parking database db under assign.
func startParking(arch Architecture, cfg Config, db *workload.DB, assign *fragment.Assignment) (*Cluster, error) {
	c, err := Start(arch, cfg, db.Doc, db.Schema, workload.Service, assign)
	if err != nil {
		return nil, err
	}
	c.DB = db
	return c, nil
}

// Start is the one in-process builder: it partitions doc by assign, runs
// one site per partition on a SimNet built from cfg.Net, and registers
// every IDable node of doc under service with a shared name registry.
// Sites are built from the cfg.Site template (see siteConfig); arch only
// decides where frontends enter (see NewFrontend).
func Start(arch Architecture, cfg Config, doc *xmldb.Node, schema *xpath.Schema, service string, assign *fragment.Assignment) (*Cluster, error) {
	c := &Cluster{
		Arch:     arch,
		Cfg:      cfg,
		Net:      transport.NewSimNet(cfg.Net),
		Registry: naming.NewRegistry(),
		Sites:    map[string]*site.Site{},
		Assign:   assign,
		Metrics:  metrics.NewRegistry(),
		service:  service,
		schema:   schema,
	}
	stores, owned, err := fragment.Partition(doc, assign)
	if err != nil {
		return nil, fmt.Errorf("cluster: partition: %w", err)
	}
	for _, name := range assign.Sites() {
		s := site.New(c.siteConfig(name), doc.Name, doc.ID())
		if _, err := s.Recover(stores[name], owned[name]); err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: recovering site %s: %w", name, err)
		}
		if err := s.Start(); err != nil {
			c.Close()
			return nil, err
		}
		s.Register(c.Metrics)
		c.Sites[name] = s
	}
	c.Registry.RegisterSubtree(doc, service, assign.OwnerOf)
	return c, nil
}

// siteConfig is the one place a cluster site is configured: the Cfg.Site
// template with this site's identity and the cluster's wiring filled in.
func (c *Cluster) siteConfig(name string) site.Config {
	sc := c.Cfg.Site
	sc.Name = name
	sc.Service = c.service
	sc.Net = c.Net
	sc.DNS = c.NewResolver()
	sc.Registry = c.Registry
	sc.Schema = c.schema
	if sc.DataDir != "" {
		sc.DataDir = filepath.Join(sc.DataDir, name)
	}
	return sc
}

// Close stops all sites.
func (c *Cluster) Close() {
	for _, s := range c.Sites {
		s.Stop()
	}
}

// NewResolver builds a fresh DNS client against the cluster registry.
func (c *Cluster) NewResolver() *naming.Client {
	return naming.NewClient(c.Registry, c.service, dnsTTL, nil)
}

// NewFrontend builds a query frontend. Architectures 1 and 2 route every
// query through the central server (no self-starting).
func (c *Cluster) NewFrontend() *service.Frontend {
	f := service.NewFrontend(c.Net, c.NewResolver())
	if c.Arch == Centralized || c.Arch == CentralQueryDistUpdate {
		f.ForceEntry = CentralSite
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
	return startParking(Hierarchical, cfg, db, assign)
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
	cfg.Net.Latency = 1500 * time.Microsecond
	cfg.Site.QueryWork = 2 * time.Millisecond
	cfg.Site.PerNodeWork = 40 * time.Microsecond
	cfg.Site.UpdateWork = 4 * time.Millisecond
	return cfg
}
