// Command compare applies the measuring rule to two sets of benchmark runs:
// a gain is claimed only with at least ten pairs of runs, the change winning
// at least nine tenths of them (ties counting for neither side) and the
// medians further apart than the parent's own interquartile range; a
// regression is a median worse than the parent's by more than the bound
// BENCHMARK.json fixes. Anything the spread does not let it decide is
// "unresolved", never "unchanged".
//
//	go run ./benchmark/compare [-spec BENCHMARK.json] <parent> <change>
//
// <parent> and <change> are result files written by the benchmark, or
// directories of them. Produce them by alternating the two builds, one run
// each at a time, swapping which goes first: runs are paired in the order
// they started.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"irisnet/benchmark/stats"
)

// minPairs is the least number of pairs a claim may rest on.
const minPairs = 10

type run struct {
	Config struct {
		Workload string `json:"workload"`
		Trace    bool   `json:"trace"`
	} `json:"config"`
	Started time.Time `json:"started"`
	Failed  int64     `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's declaration")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-spec BENCHMARK.json] <parent results> <change results>")
		return 2
	}
	var sp spec
	if err := readJSON(*specPath, &sp); err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	parent, err := load(fs.Arg(0))
	if err == nil {
		var change []run
		if change, err = load(fs.Arg(1)); err == nil {
			report(stdout, sp, parent, change)
			return 0
		}
	}
	fmt.Fprintf(stderr, "compare: %v\n", err)
	return 2
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// load reads the untraced runs of one side, oldest first.
func load(path string) ([]run, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result*.json")); err != nil {
			return nil, err
		}
	}
	var runs []run
	for _, f := range files {
		var rf struct {
			Runs []run `json:"runs"`
		}
		if err := readJSON(f, &rf); err != nil {
			return nil, err
		}
		for _, r := range rf.Runs {
			if !r.Config.Trace {
				runs = append(runs, r)
			}
		}
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Started.Before(runs[j].Started) })
	return runs, nil
}

// values returns one metric's readings on one workload, in run order, and
// how many operations failed across those runs.
func values(runs []run, workload, metric string) (v []float64, failed int64) {
	for _, r := range runs {
		if r.Config.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
			failed += r.Failed
		}
	}
	return v, failed
}

func report(w io.Writer, sp spec, parent, change []run) {
	fmt.Fprintf(w, "%-16s %-18s %30s %30s %16s %7s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "change/parent", "wins", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			p, pFailed := values(parent, wl.Name, m.Name)
			c, cFailed := values(change, wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-16s %-18s no runs on one side\n", wl.Name, m.Name)
				continue
			}
			pm, cm := stats.Median(p), stats.Median(c)
			pq1, pq3 := stats.Quartiles(p)
			cq1, cq3 := stats.Quartiles(c)
			wins, pairs := tally(p, c, m.Better)
			fmt.Fprintf(w, "%-16s %-18s %30s %30s %16s %7s  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", pm, pq1, pq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", cm, cq1, cq3),
				fmt.Sprintf("%.4f of %.4g %s", stats.Ratio(cm, pm), pm, m.Unit),
				fmt.Sprintf("%d/%d", wins, pairs),
				verdict(m, p, c, wins, pairs, cFailed > pFailed))
		}
	}
}

// better reports whether a is a better reading than b.
func better(a, b float64, direction string) bool {
	if direction == "higher" {
		return a > b
	}
	return a < b
}

// tally pairs the i-th parent run with the i-th change run.
func tally(p, c []float64, direction string) (wins, pairs int) {
	pairs = len(p)
	if len(c) < pairs {
		pairs = len(c)
	}
	for i := 0; i < pairs; i++ {
		if better(c[i], p[i], direction) {
			wins++
		}
	}
	return wins, pairs
}

func verdict(m declared, p, c []float64, wins, pairs int, moreFailures bool) string {
	pm, cm := stats.Median(p), stats.Median(c)
	q1, q3 := stats.Quartiles(p)
	iqr := q3 - q1
	gap := cm - pm
	if gap < 0 {
		gap = -gap
	}
	worseBy := stats.Ratio(cm-pm, pm) // share of the parent's median, positive = worse
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case pairs < minPairs:
		return fmt.Sprintf("unresolved: %d pairs, the rule needs %d", pairs, minPairs)
	case worseBy > m.Bound:
		return fmt.Sprintf("REGRESSION: median worse by %.1f%%, bound %.0f%%", 100*worseBy, 100*m.Bound)
	case 10*wins >= 9*pairs && gap > iqr && better(cm, pm, m.Better):
		if moreFailures {
			return "no gain: more operations failed than on the parent"
		}
		return fmt.Sprintf("gain: won %d of %d pairs, medians %.4g apart, parent's quartiles %.4g apart", wins, pairs, gap, iqr)
	case stats.Ratio(iqr, pm) > m.Bound && !allBetter(c, p, m.Better):
		return fmt.Sprintf("unresolved: the parent's spread (%.1f%%) exceeds the %.0f%% bound", 100*stats.Ratio(iqr, pm), 100*m.Bound)
	default:
		return fmt.Sprintf("within bound (%.0f%%)", 100*m.Bound)
	}
}

// allBetter reports whether every run of a reads better than every run of b.
func allBetter(a, b []float64, direction string) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y, direction) {
				return false
			}
		}
	}
	return true
}
