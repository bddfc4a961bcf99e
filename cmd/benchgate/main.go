// Command benchgate compares two `go test -bench` outputs and fails when
// any benchmark regressed: its median ns/op rose past a threshold and every
// new sample is slower than every old one. It is the
// machine-checked verdict behind the CI perf gate: benchstat (when
// installed) renders the human-readable comparison, benchgate decides
// pass/fail with no dependencies outside the standard library, so the
// gate also runs in offline checkouts via `make perf-gate`.
//
// Usage:
//
//	benchgate -old base.txt -new head.txt -threshold 15 \
//	          -require BenchmarkSnapshotQuery,BenchmarkSerialize
//
// The second condition is what keeps the gate quiet on an unchanged tree:
// on a shared two-core machine the medians of two captures of identical
// code differ by more than 15% about half the time, but their sample ranges
// overlap; a real slowdown moves the whole range.
//
// Benchmarks present in only one file are reported but do not gate;
// -require names benchmark prefixes that must have samples in both files
// (a rename silently dropping a gated benchmark fails loudly).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

var (
	oldFlag       = flag.String("old", "", "baseline `go test -bench` output")
	newFlag       = flag.String("new", "", "candidate `go test -bench` output")
	thresholdFlag = flag.Float64("threshold", 15, "max allowed median ns/op regression, percent")
	requireFlag   = flag.String("require", "", "comma-separated benchmark name prefixes that must appear in both files")
)

func main() {
	flag.Parse()
	if *oldFlag == "" || *newFlag == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old and -new are required")
		os.Exit(2)
	}
	oldNs, err := parseBenchFile(*oldFlag)
	fatal(err)
	newNs, err := parseBenchFile(*newFlag)
	fatal(err)
	if !gate(os.Stdout, oldNs, newNs, *thresholdFlag, strings.Split(*requireFlag, ",")) {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL (median ns/op up more than %.0f%% with every new sample slower than every old one, or a required benchmark missing)\n", *thresholdFlag)
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok (no benchmark slower by more than %.0f%% in the median and in every sample)\n", *thresholdFlag)
}

// gate prints the comparison table to w and reports whether the new samples
// pass: no benchmark regressed, and every required prefix has samples on
// both sides.
func gate(w io.Writer, oldNs, newNs map[string][]float64, threshold float64, require []string) bool {
	names := make([]string, 0, len(oldNs))
	for name := range oldNs {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-52s %14s %14s %9s\n", "benchmark", "old-ns/op", "new-ns/op", "delta")
	ok := true
	for _, name := range names {
		old := median(oldNs[name])
		cur, has := newNs[name]
		if !has {
			fmt.Fprintf(w, "%-52s %14.0f %14s %9s\n", name, old, "-", "gone")
			continue
		}
		nw := median(cur)
		delta := 100 * (nw - old) / old
		verdict := ""
		if delta > threshold {
			if slices.Min(cur) > slices.Max(oldNs[name]) {
				verdict = "  REGRESSION"
				ok = false
			} else {
				verdict = "  (sample ranges overlap: noise)"
			}
		}
		fmt.Fprintf(w, "%-52s %14.0f %14.0f %+8.1f%%%s\n", name, old, nw, delta, verdict)
	}
	for name := range newNs {
		if _, has := oldNs[name]; !has {
			fmt.Fprintf(w, "%-52s %14s %14.0f %9s\n", name, "-", median(newNs[name]), "new")
		}
	}

	for _, prefix := range require {
		prefix = strings.TrimSpace(prefix)
		if prefix == "" {
			continue
		}
		if !hasPrefix(oldNs, prefix) || !hasPrefix(newNs, prefix) {
			fmt.Fprintf(w, "required benchmark %q missing from a side\n", prefix)
			ok = false
		}
	}
	return ok
}

func hasPrefix(m map[string][]float64, prefix string) bool {
	for name := range m {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// parseBench extracts ns/op samples per benchmark from `go test -bench`
// output. The trailing -N GOMAXPROCS suffix is folded away so `-count`
// repetitions aggregate under one name.
func parseBench(r io.Reader) (map[string][]float64, error) {
	out := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			name := fields[0]
			if j := strings.LastIndex(name, "-"); j > 0 {
				if _, err := strconv.Atoi(name[j+1:]); err == nil {
					name = name[:j]
				}
			}
			out[name] = append(out[name], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseBenchFile(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out, err := parseBench(f)
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("%s: no benchmark results found", path)
	}
	return out, err
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
