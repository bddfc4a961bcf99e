package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"irisnet/benchmark/stats"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// latency is the percentiles of every successful operation of one kind in
// the timed window, with their number.
type latency struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_ms"`
	P99     float64 `json:"p99_ms"`
}

func latencyOf(ms []float64) latency {
	return latency{len(ms), stats.Percentile(ms, 0.50), stats.Percentile(ms, 0.99)}
}

// runConfig is everything one run depends on; the result echoes it.
type runConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Clients  int     `json:"clients"`
	Seconds  float64 `json:"seconds"`
	Warmup   float64 `json:"warmup_seconds"`
	Trace    bool    `json:"trace"`
	// Setups is how many times the deployment is set up; setup_s is the
	// median.
	Setups int `json:"setups"`
	// MinSamples is the least number of timed samples every operation type
	// of the mix must have for its percentiles to be reported; fewer fails
	// the run.
	MinSamples int `json:"min_samples"`
	// ReplayIterations is the least number of calls each replay loop makes.
	ReplayIterations int            `json:"replay_iterations"`
	OutDir           string         `json:"out"`
	inject           faultInjection // the benchmark's own tests only
}

type faultInjection struct {
	corruptAnswerIn, dropUpdatesAfter int64
}

// environment records where the numbers were taken.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Host       string `json:"hostname"`
	DataDirFS  string `json:"datadir_filesystem"`
	Note       string `json:"note"`
}

// runResult is one run of one workload in one trace mode.
type runResult struct {
	Config    runConfig         `json:"config"`
	Started   time.Time         `json:"started"`
	Env       environment       `json:"environment"`
	Why       string            `json:"why"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Query and Update split the untraced window's latencies by operation
	// type; a type the mix lacks has no samples.
	Query       latency     `json:"query_latency"`
	Update      latency     `json:"update_latency"`
	TimedOps    int64       `json:"timed_ops"`
	SetupRuns   []float64   `json:"setup_runs_s,omitempty"`
	Ledger      []ledgerRow `json:"ledger,omitempty"`
	SpansFile   string      `json:"spans_file,omitempty"`
	Failures    []string    `json:"failures,omitempty"`
	WallSeconds float64     `json:"wall_seconds"`
	// Diagnostics are readings that are not declared metrics of this trace
	// mode: what the untraced window's site counters and the checks saw.
	Diagnostics map[string]float64 `json:"diagnostics"`
}

const envNote = "loopback, sandbox filesystem: latencies are this host's, not a device's"

func describeEnvironment(dir string) environment {
	host, _ := os.Hostname() // an empty name is still a valid record
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Host:       host,
		DataDirFS:  filesystemType(dir),
		Note:       envNote,
	}
}

// runOnce runs one workload once, untraced or traced, and checks it.
func runOnce(cfg runConfig) (*runResult, error) {
	spec, ok := workloadByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	began := time.Now()
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{
		Config:      cfg,
		Started:     began,
		Env:         describeEnvironment(cfg.OutDir),
		Why:         spec.why,
		Metrics:     map[string]metric{},
		Diagnostics: map[string]float64{},
	}
	dataDir := filepath.Join(cfg.OutDir, fmt.Sprintf("data-%s-%d", spec.name, os.Getpid()))
	ck := &checks{}

	// Set-up, several times over: only the last deployment is kept.
	var h *harness
	var l *loader
	for i := 0; i < cfg.Setups; i++ {
		if h != nil {
			h.stop()
		}
		var seconds float64
		var err error
		if h, l, seconds, err = deploy(spec, cfg, dataDir); err != nil {
			return nil, err
		}
		res.SetupRuns = append(res.SetupRuns, seconds)
	}
	defer h.stop()

	mix := opMix{queryShare: spec.queryShare, pool: spec.pool, exact: spec.queryShare == 1}
	warmup := time.Duration(cfg.Warmup * float64(time.Second))
	timed := time.Duration(cfg.Seconds * float64(time.Second))
	var window counts
	if cfg.Trace {
		var err error
		if window, err = l.tracedPass(res, mix, warmup, timed); err != nil {
			return nil, err
		}
		staleRejects, recovery := l.verify(ck, cfg.Seed)
		// Both zero except where the workload has what they measure:
		// freshness predicates, and sites that crash and recover.
		res.Metrics["verify.stale_rejects"] = metric{staleRejects, "count"}
		res.Metrics["site.recovery_s"] = metric{recovery, "s"}
	} else {
		p := l.run(mix, warmup, timed)
		heap := liveHeapMiB()
		window = l.tally(p.start(), p.end())
		l.endToEnd(res, ck, p, window, heap)
		res.Diagnostics["verify.stale_rejects"], res.Diagnostics["site.recovery_s"] = l.verify(ck, cfg.Seed)
	}

	// Every operation sent counts, warm-up included: a wrong answer outside
	// the timed window is still a wrong answer.
	all := l.tally(0, math.MaxInt64)
	res.TimedOps = window.ok()
	res.Attempted = all.attempted + ck.attempted
	res.Failed = all.failed + ck.failed
	res.Failures = append(l.failures(), ck.msgs...)
	res.Correct = res.Failed == 0
	res.WallSeconds = time.Since(began).Seconds()
	return res, nil
}

// deploy starts one deployment with its clients and reports how long that
// took: from nothing to the first operation being sendable. The reference
// the answers are checked against is built after the clock stops.
func deploy(spec workloadSpec, cfg runConfig, dataDir string) (*harness, *loader, float64, error) {
	t0 := time.Now()
	h, err := startHarness(spec, dataDir)
	if err != nil {
		return nil, nil, 0, err
	}
	l := newLoader(h, cfg.Seed, cfg.Clients)
	seconds := time.Since(t0).Seconds()
	l.iters = cfg.ReplayIterations
	if l.ref, err = newReference(h.db); err != nil {
		h.stop()
		return nil, nil, 0, err
	}
	h.net.corruptAnswerIn.Store(cfg.inject.corruptAnswerIn)
	h.net.dropUpdatesAfter = cfg.inject.dropUpdatesAfter
	return h, l, seconds, nil
}

// endToEnd fills the end-to-end metrics, every one over the whole timed
// window: rates are the window's counter deltas over its successful
// operations, percentiles are over every successful operation's latency. An
// operation type of the mix with fewer than MinSamples samples fails the run.
func (l *loader) endToEnd(res *runResult, ck *checks, p *phase, window counts, heap float64) {
	ops := float64(window.ok())
	first, last := p.first, p.last
	res.Query, res.Update = latencyOf(window.queryMS), latencyOf(window.updateMS)
	for _, kind := range []struct {
		name    string
		inMix   bool
		samples int
	}{{"query", l.h.spec.queryShare > 0, res.Query.Samples}, {"update", l.h.spec.queryShare < 1, res.Update.Samples}} {
		if kind.inMix && kind.samples < res.Config.MinSamples {
			ck.fail("%d %s samples in the timed window, %d needed: lengthen -seconds", kind.samples, kind.name, res.Config.MinSamples)
		}
	}
	op := latencyOf(append(append([]float64(nil), window.queryMS...), window.updateMS...))
	res.Metrics["ops_per_s"] = metric{stats.Ratio(ops, p.seconds()), "1/s"}
	res.Metrics["op_p50_ms"] = metric{op.P50, "ms"}
	res.Metrics["op_p99_ms"] = metric{op.P99, "ms"}
	res.Metrics["allocs_per_op"] = metric{stats.Ratio(float64(last.mallocs-first.mallocs), ops), "count"}
	res.Metrics["wire_bytes_per_op"] = metric{stats.Ratio(float64(last.bytes-first.bytes), ops), "B"}
	res.Metrics["wire_msgs_per_op"] = metric{stats.Ratio(float64(last.calls-first.calls), ops), "count"}
	res.Metrics["cpu_s_per_kop"] = metric{stats.Ratio(last.cpu-first.cpu, ops) * 1000, "s"}
	res.Metrics["heap_live_mb"] = metric{heap, "MiB"}
	res.Metrics["setup_s"] = metric{stats.Median(res.SetupRuns), "s"}

	d := p.sitesAfter.minus(p.sitesBefore)
	res.Diagnostics["proc.cpu_util"] = stats.Ratio(last.cpu-first.cpu, p.seconds()*float64(runtime.NumCPU()))
	res.Diagnostics["site.cache_hit_ratio"] = stats.Ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses))
	res.Diagnostics["site.evictions"] = float64(d.evictions)
	res.Diagnostics["site.checkpoints"] = float64(d.checkpoints)
	res.Diagnostics["wal.fsyncs_per_update"] = stats.Ratio(float64(d.walFsyncs), float64(d.updates))
}

// verify quiesces and runs the correctness checks. Every cache is coherent
// with the acked updates here: the read workloads sent none, update_durable
// has not queried yet, and the freshness predicate re-fetches whatever its
// tolerance rejects. It returns the number of answer nodes the full-answer
// comparison found missing and let pass (see verifyAnswers), and on the
// durable workload the seconds the sites took to recover from a crash.
func (l *loader) verify(ck *checks, seed int64) (staleRejects, recoverySeconds float64) {
	if err := l.applyAcked(); err != nil {
		ck.fail("%v", err)
	}
	staleRejects = float64(l.verifyAnswers(ck, seed))
	l.verifyInvariants(ck)
	l.verifyReadBack(ck)
	if l.h.spec.durable {
		recoverySeconds = l.crashRecover(ck)
		l.verifyReadBack(ck)
	}
	return staleRejects, recoverySeconds
}
