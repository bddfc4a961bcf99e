// Command irisnetd runs one IrisNet organizing agent (site) over TCP.
//
// A deployment is described by a JSON topology file shared by every daemon
// and tool:
//
//	{
//	  "service": "parking.intel-iris.net",
//	  "document": "db.xml",
//	  "sites": {
//	    "root-site":   "127.0.0.1:7001",
//	    "oakland":     "127.0.0.1:7002"
//	  },
//	  "rootOwner": "root-site",
//	  "ownership": {
//	    "/usRegion[@id='NE']/.../neighborhood[@id='Oakland']": "oakland"
//	  },
//	  "registry": "127.0.0.1:7000"
//	}
//
// One daemon also hosts the name registry (-registry), playing the DNS
// server's role; all sites and tools resolve names through it.
//
// With -admin the daemon also serves an HTTP observability endpoint:
// /metrics (Prometheus text), /healthz, /debug/fragment (?site= selects
// one site), /debug/cluster (federated topology + counters across every
// admin listed in the topology's "admins" map), the net/http/pprof
// endpoints under /debug/pprof/, and — with -profile-interval —
// /debug/profile/latest, the newest continuous CPU-profile sample.
//
// Usage:
//
//	irisnetd -topology topo.json -site oakland [-registry] [-caching] [-admin :9090]
package main

import (
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"irisnet/internal/deploy"
	"irisnet/internal/site"
)

func main() {
	var (
		topoPath  = flag.String("topology", "", "path to the JSON topology file (required)")
		siteName  = flag.String("site", "", "name of the site to run (required)")
		registry  = flag.Bool("registry", false, "also host the name registry for the deployment")
		caching   = flag.Bool("caching", true, "cache query results at this site")
		cacheCap  = flag.Int64("cache-budget", 0, "cache memory budget in bytes (0 = unbounded); cold cached units are evicted when accounted bytes exceed it")
		adminAddr = flag.String("admin", "", "serve /metrics, /healthz, /debug/fragment, /debug/cluster and /debug/pprof on this host:port (\":0\" picks a port)")
		verbose   = flag.Bool("v", false, "log per-query debug detail (trace IDs, cache hits, fan-out)")
		slowQuery = flag.Duration("slow-query", 0, "log a warning for queries slower than this (0 = off)")
		staleAns  = flag.Duration("stale-answer", 0, "log a warning for answers using cached data older than this (0 = off)")
		profEvery = flag.Duration("profile-interval", 0, "take a 1s continuous CPU-profile sample this often, served at /debug/profile/latest (0 = off; needs -admin)")
		dataDir   = flag.String("data-dir", "", "durable store directory; the site WALs commits and checkpoints snapshots under <data-dir>/<site> and restarts warm (empty = in-memory)")
		fsyncIvl  = flag.Duration("fsync-interval", 0, "relax WAL fsyncs to this background cadence, trading up to one interval of acked updates on power loss for throughput (0 = fsync every acked commit)")
		ckptIvl   = flag.Duration("checkpoint-interval", 0, "how often to checkpoint the snapshot and truncate the WAL (0 = default 10s; needs -data-dir)")
	)
	flag.Parse()
	if *topoPath == "" || *siteName == "" {
		flag.Usage()
		os.Exit(2)
	}
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	topo, err := deploy.LoadTopology(*topoPath)
	if err != nil {
		fail(logger, err)
	}
	node, err := deploy.StartSite(topo, *siteName, deploy.SiteOptions{
		HostRegistry:    *registry,
		AdminAddr:       *adminAddr,
		ProfileInterval: *profEvery,
		Site: site.Config{
			Caching:              *caching,
			CacheBudgetBytes:     *cacheCap,
			Logger:               logger,
			SlowQueryThreshold:   *slowQuery,
			StaleAnswerThreshold: *staleAns,
			DataDir:              *dataDir,
			FsyncInterval:        *fsyncIvl,
			CheckpointInterval:   *ckptIvl,
		},
	})
	if err != nil {
		fail(logger, err)
	}
	logger.Info("site serving",
		"site", *siteName,
		"addr", topo.Sites[*siteName],
		"registry_hosted", *registry,
		"caching", *caching,
		"cache_budget_bytes", *cacheCap,
		"data_dir", *dataDir,
		"recovery_seconds", node.Site.RecoverySeconds(),
		"owned_nodes", len(node.Site.OwnedPaths()))
	if node.AdminAddr != "" {
		paths := "/metrics /healthz /debug/fragment /debug/cluster /debug/pprof"
		if *profEvery > 0 {
			paths += " /debug/profile/latest"
		}
		logger.Info("admin endpoint serving",
			"addr", node.AdminAddr,
			"paths", paths)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	node.Stop()
	logger.Info("stopped", "site", *siteName)
}

func fail(logger *slog.Logger, err error) {
	logger.Error("startup failed", "err", err)
	os.Exit(1)
}
