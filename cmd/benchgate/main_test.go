package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// capture renders `go test -bench -count` output for one benchmark name per
// sample list, the shape perf_gate.sh feeds the gate.
func capture(t *testing.T, samples map[string][]float64) map[string][]float64 {
	t.Helper()
	var b strings.Builder
	b.WriteString("goos: linux\npkg: irisnet/internal/site\n")
	for name, xs := range samples {
		for _, x := range xs {
			fmt.Fprintf(&b, "%s-2   \t    1000\t  %.1f ns/op\t     512 B/op\t       7 allocs/op\n", name, x)
		}
	}
	b.WriteString("PASS\n")
	out, err := parseBench(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var required = []string{"BenchmarkSnapshotQuery", "BenchmarkSerialize"}

// Two captures of the same code on a busy machine: the medians are 39% and
// 33% apart, but the sample ranges overlap.
func TestGatePassesIdenticalCodeUnderNoise(t *testing.T) {
	old := capture(t, map[string][]float64{
		"BenchmarkSnapshotQuery/hot": {1000, 1010, 1020, 1030, 1500, 1600},
		"BenchmarkSerialize":         {200, 205, 210, 215, 220, 330},
	})
	cur := capture(t, map[string][]float64{
		"BenchmarkSnapshotQuery/hot": {1005, 1015, 1400, 1450, 1550, 1650},
		"BenchmarkSerialize":         {204, 260, 280, 285, 290, 300},
	})
	if len(old) != 2 || len(old["BenchmarkSerialize"]) != 6 {
		t.Fatalf("parsed %v", old)
	}
	if !gate(io.Discard, old, cur, 15, required) {
		t.Fatal("overlapping sample ranges of identical code failed the gate")
	}
}

// Every sample 1.3x slower: median up 30% and the ranges are disjoint.
func TestGateFailsShiftedSamples(t *testing.T) {
	base := []float64{1000, 1010, 1020, 1030, 1100, 1150}
	shifted := make([]float64, len(base))
	for i, x := range base {
		shifted[i] = 1.3 * x
	}
	old := capture(t, map[string][]float64{"BenchmarkSnapshotQuery/hot": base, "BenchmarkSerialize": {200, 210}})
	cur := capture(t, map[string][]float64{"BenchmarkSnapshotQuery/hot": shifted, "BenchmarkSerialize": {200, 210}})
	var table strings.Builder
	if gate(&table, old, cur, 15, required) {
		t.Fatalf("a x1.3 shift of every sample passed the gate:\n%s", table.String())
	}
	if !strings.Contains(table.String(), "REGRESSION") {
		t.Fatalf("table does not name the regression:\n%s", table.String())
	}
}

func TestGateFailsMissingRequiredBenchmark(t *testing.T) {
	old := capture(t, map[string][]float64{"BenchmarkSnapshotQuery/hot": {1000, 1010}, "BenchmarkSerialize": {200, 210}})
	cur := capture(t, map[string][]float64{"BenchmarkSnapshotQuery/hot": {1000, 1010}})
	if gate(io.Discard, old, cur, 15, required) {
		t.Fatal("a required benchmark missing from the new capture passed the gate")
	}
	if !gate(io.Discard, old, cur, 15, required[:1]) {
		t.Fatal("a benchmark that is gone but not required failed the gate")
	}
}
