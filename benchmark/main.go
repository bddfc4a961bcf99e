// Command benchmark is the repository's one end-to-end benchmark. It hosts
// the nine Architecture-4 sites and the load generator in one process, runs a
// named workload with tracing off to produce the end-to-end metrics or with
// tracing on to produce the per-layer metrics, checks the answers, and prints
// the result as the last line of its standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"

	"irisnet/benchmark/stats"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// summary is the last line of standard output: exactly these four keys.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload `name`, or all")
		seed     = fs.Int64("seed", 1, "the only source of randomness")
		seconds  = fs.Float64("seconds", 20, "length of the timed window")
		warmup   = fs.Float64("warmup", 2, "seconds of load before the timed window")
		trace    = fs.String("trace", "both", "0: end-to-end metrics, 1: traced pass and per-layer metrics, both")
		clients  = fs.Int("clients", 2, "closed-loop clients; at most nproc")
		out      = fs.String("out", "benchmark/out", "directory for result files, spans and the durable workload's data")
		repeat   = fs.Int("repeat", 1, "run each workload this many times and print median and quartiles")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *clients < 1 || *clients > runtime.NumCPU() {
		fmt.Fprintf(stderr, "benchmark: -clients %d: need 1..nproc (%d), or the clients time each other's waits\n", *clients, runtime.NumCPU())
		return 2
	}
	if *seconds <= 0 || *warmup < 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -warmup non-negative, -repeat at least 1")
		return 2
	}
	var names []string
	if *workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(*workload); ok {
		names = []string{*workload}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}

	var results []*runResult
	for _, name := range names {
		for _, traced := range modes {
			for i := 0; i < *repeat; i++ {
				cfg := runConfig{
					Workload: name, Seed: *seed, Clients: *clients, Seconds: *seconds,
					Warmup: *warmup, Trace: traced, Setups: setupRuns, MinSamples: minSamples,
					ReplayIterations: replayIterations, OutDir: *out,
				}
				if traced {
					cfg.Setups = 1 // setup_s is an end-to-end metric
				}
				res, err := runOnce(cfg)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
					return 1
				}
				printResult(stdout, res)
				results = append(results, res)
			}
		}
	}
	if *repeat > 1 {
		printSpread(stdout, results)
	}
	if err := writeResults(*out, results); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	// The last line: the metrics of the one run; with -repeat their medians
	// over the runs; with several workloads under "<workload>/<name>".
	sum := summary{Correct: true, Metrics: map[string]metric{}}
	values := map[string][]float64{}
	for _, r := range results {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(names) > 1 {
				name = r.Config.Workload + "/" + name
			}
			values[name] = append(values[name], m.Value)
			sum.Metrics[name] = metric{stats.Median(values[name]), m.Unit}
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

const (
	// setupRuns is how many times an untraced run sets the deployment up;
	// setup_s is the median.
	setupRuns = 5
	// minSamples is the least number of timed samples per operation type a
	// run may report percentiles from.
	minSamples = 1000
	// replayIterations is the least number of calls each replay loop makes.
	replayIterations = 2000
)

func printResult(w io.Writer, r *runResult) {
	mode := "untraced"
	if r.Config.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d %s: %d ops in the timed window, %d attempted, %d failed, %.1fs wall\n",
		r.Config.Workload, r.Config.Seed, mode, r.TimedOps, r.Attempted, r.Failed, r.WallSeconds)
	if !r.Config.Trace {
		for _, kind := range []struct {
			name string
			lat  latency
		}{{"query", r.Query}, {"update", r.Update}} {
			if kind.lat.Samples > 0 {
				fmt.Fprintf(w, "   %-6s p50 %.4f ms  p99 %.4f ms  (%d samples)\n", kind.name, kind.lat.P50, kind.lat.P99, kind.lat.Samples)
			}
		}
		fmt.Fprintf(w, "   op_p50_ms and op_p99_ms are over all %d samples\n", r.Query.Samples+r.Update.Samples)
	}
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "   %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, row := range r.Ledger {
		fmt.Fprintf(w, "   ledger %-28s %10.3f us x %8.3f /op = %10.3f us/op\n", row.Layer, row.UnitUS, row.PerOp, row.USPerOp)
	}
	for _, name := range sortedKeys(r.Diagnostics) {
		fmt.Fprintf(w, "   (%s = %.4f)\n", name, r.Diagnostics[name])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

// printSpread prints, per workload and metric, the median and quartiles over
// the repeated runs and the quartile distance as a share of the median.
func printSpread(w io.Writer, results []*runResult) {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	var order []key
	for _, r := range results {
		for _, name := range sortedKeys(r.Metrics) {
			k := key{r.Config.Workload, name}
			if _, seen := values[k]; !seen {
				order = append(order, k)
			}
			values[k] = append(values[k], r.Metrics[name].Value)
		}
	}
	fmt.Fprintf(w, "== spread over repeated runs\n")
	for _, k := range order {
		v := values[k]
		q1, q3 := stats.Quartiles(v)
		med := stats.Median(v)
		fmt.Fprintf(w, "   %-16s %-34s n=%d median %12.4f  q1 %12.4f  q3 %12.4f  iqr/median %.4f\n",
			k.workload, k.metric, len(v), med, q1, q3, stats.Ratio(q3-q1, med))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultsFile is what -out receives and what compare reads.
type resultsFile struct {
	Runs []*runResult `json:"runs"`
}

func writeResults(dir string, results []*runResult) error {
	b, err := json.MarshalIndent(resultsFile{Runs: results}, "", " ")
	if err != nil {
		return err
	}
	first := results[0].Config
	name := fmt.Sprintf("result-%s-seed%d-pid%d.json", first.Workload, first.Seed, os.Getpid())
	if len(results) > 1 {
		name = fmt.Sprintf("results-seed%d-pid%d.json", first.Seed, os.Getpid())
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// filesystemType names the filesystem holding dir, which decides what an
// fsync costs on update_durable.
func filesystemType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}
