package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"irisnet/internal/cluster"
	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/service"
	"irisnet/internal/site"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// checkpointInterval gives update_durable several checkpoints inside even a
// short timed window; checkpoints hold the commit mutex, so they belong in
// the update tail the workload reports.
const checkpointInterval = 2 * time.Second

// harness is one running deployment: the nine Architecture-4 sites, the name
// registry and the metered transport, all in this process. The wiring is the
// benchmark's own because cluster.New and deploy.StartSite build their
// transport internally, which leaves no place to interpose the meter.
type harness struct {
	spec    workloadSpec
	db      *workload.DB
	net     *meterNet
	tcp     *transport.TCPNet // nil on SimNet
	reg     *naming.Registry
	sites   map[string]*site.Site
	names   []string // sorted site names
	dataDir string   // "" unless spec.durable

	baseStores map[string]*fragment.Store
	baseOwned  map[string][]xmldb.IDPath
}

// startHarness builds the database, partitions it hierarchically, starts the
// nine sites and registers every IDable node's owner. When it returns, a
// frontend made by newFrontend can send its first operation; that is the
// interval setup_s measures.
func startHarness(spec workloadSpec, dataDir string) (*harness, error) {
	db := workload.Build(workload.PaperSmall())
	assign := fragment.NewAssignment(cluster.RootSiteName)
	for c := 0; c < db.Cfg.Cities; c++ {
		assign.Assign(db.CityPath(c), cluster.CitySiteName(c))
		for n := 0; n < db.Cfg.Neighborhoods; n++ {
			assign.Assign(db.NeighborhoodPath(c, n), cluster.NBSiteName(c, n))
		}
	}
	stores, owned, err := fragment.Partition(db.Doc, assign)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	h := &harness{
		spec:       spec,
		db:         db,
		reg:        naming.NewRegistry(),
		sites:      map[string]*site.Site{},
		names:      assign.Sites(),
		baseStores: stores,
		baseOwned:  owned,
	}
	sort.Strings(h.names)
	if spec.durable {
		h.dataDir = dataDir
	}
	var inner transport.Network
	if spec.tcp {
		addrs := map[string]string{}
		for _, name := range h.names {
			addrs[name] = "127.0.0.1:0" // resolved to the bound port on Register
		}
		h.tcp = transport.NewTCPNet(addrs)
		inner = h.tcp
	} else {
		inner = transport.NewSimNet(transport.SimConfig{})
	}
	h.net = newMeterNet(inner)
	for _, name := range h.names {
		if err := h.startSite(name); err != nil {
			h.stop()
			return nil, err
		}
	}
	h.reg.RegisterSubtree(db.Doc, workload.Service, assign.OwnerOf)
	return h, nil
}

// startSite mirrors deploy.StartSite's site.Config with the synthetic
// service-time model left at zero, so every microsecond measured is the
// engine's own.
func (h *harness) startSite(name string) error {
	cfg := site.Config{
		Name:             name,
		Service:          workload.Service,
		Net:              h.net,
		DNS:              h.newResolver(),
		Registry:         h.reg,
		Schema:           h.db.Schema,
		Caching:          true,
		CacheBudgetBytes: h.spec.cacheBudget,
		CPUSlots:         4,
	}
	if h.dataDir != "" {
		cfg.DataDir = filepath.Join(h.dataDir, name)
		cfg.CheckpointInterval = checkpointInterval
		// FsyncInterval stays zero: strict group commit.
	}
	s := site.New(cfg, workload.RootName, workload.RootID)
	if _, err := s.Recover(h.baseStores[name], h.baseOwned[name]); err != nil {
		return fmt.Errorf("recovering site %s: %w", name, err)
	}
	if err := s.Start(); err != nil {
		return fmt.Errorf("starting site %s: %w", name, err)
	}
	h.sites[name] = s
	return nil
}

func (h *harness) newResolver() *naming.Client {
	return naming.NewClient(h.reg, workload.Service, time.Minute, nil)
}

// newFrontend builds one client's frontend. Frontend.Trace stays off in both
// passes: the traced pass records spans around the transport, not inside the
// program.
func (h *harness) newFrontend() *service.Frontend {
	return service.NewFrontend(h.net, h.newResolver())
}

// stop shuts every site down and releases sockets and the data directory.
func (h *harness) stop() {
	for _, s := range h.sites {
		s.Stop()
	}
	if h.tcp != nil {
		h.tcp.Close()
	}
	if h.dataDir != "" {
		os.RemoveAll(h.dataDir)
	}
}

// siteCounters sums the exported per-site counters the per-layer metrics are
// deltas of.
type siteCounters struct {
	queries, subqueries, subqueryRPCs, coalesced, evictions  int64
	cacheHits, cacheMisses, updates                          int64
	retries, deadlineHits, partialAnswers                    int64
	walAppends, walBytes, walFsyncs, checkpoints, cacheBytes int64
	checkpointSeconds                                        float64
}

func (h *harness) counters() siteCounters {
	var c siteCounters
	for _, s := range h.sites {
		m := &s.Metrics
		c.queries += m.Queries.Value()
		c.subqueries += m.Subqueries.Value()
		c.subqueryRPCs += m.SubqueryRPCs.Value()
		c.coalesced += m.Coalesced.Value()
		c.evictions += m.Evictions.Value()
		c.cacheHits += m.CacheHits.Value()
		c.cacheMisses += m.CacheMisses.Value()
		c.updates += m.Updates.Value()
		c.retries += m.Retries.Value()
		c.deadlineHits += m.DeadlineHits.Value()
		c.partialAnswers += m.PartialAnswers.Value()
		c.walAppends += m.WALAppends.Value()
		c.walBytes += m.WALBytes.Value()
		c.walFsyncs += m.WALFsyncs.Value()
		c.checkpoints += m.Checkpoints.Value()
		c.checkpointSeconds += m.CheckpointSeconds.Sum()
		c.cacheBytes += int64(s.CacheBytes())
	}
	return c
}

func (a siteCounters) minus(b siteCounters) siteCounters {
	return siteCounters{
		queries: a.queries - b.queries, subqueries: a.subqueries - b.subqueries,
		subqueryRPCs: a.subqueryRPCs - b.subqueryRPCs, coalesced: a.coalesced - b.coalesced,
		evictions: a.evictions - b.evictions, cacheHits: a.cacheHits - b.cacheHits,
		cacheMisses: a.cacheMisses - b.cacheMisses, updates: a.updates - b.updates,
		retries: a.retries - b.retries, deadlineHits: a.deadlineHits - b.deadlineHits,
		partialAnswers: a.partialAnswers - b.partialAnswers,
		walAppends:     a.walAppends - b.walAppends, walBytes: a.walBytes - b.walBytes,
		walFsyncs: a.walFsyncs - b.walFsyncs, checkpoints: a.checkpoints - b.checkpoints,
		checkpointSeconds: a.checkpointSeconds - b.checkpointSeconds,
		cacheBytes:        a.cacheBytes, // a level, not a rate: keep the end value
	}
}
