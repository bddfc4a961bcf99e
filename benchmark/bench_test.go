package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// declaration is the part of BENCHMARK.json the tests hold the program to.
type declaration struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// smokeConfig is a run trimmed to a fraction of a second: one set-up, short
// windows, few replay iterations, no least number of samples. Every check
// still runs in full.
func smokeConfig(t *testing.T, workload string, traced bool) runConfig {
	return runConfig{
		Workload: workload, Seed: 1, Clients: 2, Seconds: 0.2, Warmup: 0.05,
		Trace: traced, Setups: 1, ReplayIterations: 20, OutDir: t.TempDir(),
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationMatchesProgram requires BENCHMARK.json and workloads.go to
// name the same workloads with the same reasons, and the declared metric
// names to be well-formed and few enough.
func TestDeclarationMatchesProgram(t *testing.T) {
	d := readDeclaration(t)
	if len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics declared, at most 16 and 128 allowed", len(d.EndToEnd), len(d.PerLayer))
	}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("declared metric name %q is not allowed", m.Name)
		}
	}
	var declared, have []string
	for _, w := range d.Workloads {
		declared = append(declared, w.Name)
		if spec, ok := workloadByName(w.Name); !ok || spec.why != w.Why {
			t.Errorf("workload %q: BENCHMARK.json and workloads.go disagree on it or on its why", w.Name)
		}
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(have, ",") {
		t.Fatalf("workloads declared %v, program has %v", declared, have)
	}
}

// TestEveryWorkloadInBothModes runs every workload untraced and traced and
// requires every run to emit exactly the names and units BENCHMARK.json
// declares for the mode, with the wal.* metrics zero wherever there is no
// durability. The traced runs and two of the untraced ones must pass every
// check; the other two untraced runs have a fault injected that the checks
// must catch: a query answer corrupted on its way back to a client (the
// in-loop count check), and updates acked without being delivered (the
// read-back of every client's last acked value).
//
// The runs go side by side, more of them than processors: they are trimmed
// to a fraction of a second each, and mixed_fresh_tcp spends two seconds of
// its check asleep.
func TestEveryWorkloadInBothModes(t *testing.T) {
	t.Parallel()
	d := readDeclaration(t)
	inject := map[string]faultInjection{
		"read_hot":       {corruptAnswerIn: 5},
		"update_durable": {dropUpdatesAfter: 5},
	}
	caught := map[string]string{
		"read_hot":       "reference has",
		"update_durable": "differs from the central document",
	}
	var wg sync.WaitGroup
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(t, w.name, traced)
			run, list, wantFailure := w.name+" untraced", d.EndToEnd, ""
			if traced {
				run, list = w.name+" traced", d.PerLayer
			} else {
				cfg.inject, wantFailure = inject[w.name], caught[w.name]
			}
			wg.Add(1)
			go func(durable bool) {
				defer wg.Done()
				res, err := runOnce(cfg)
				if err != nil {
					t.Errorf("%s: %v", run, err)
					return
				}
				failures := strings.Join(res.Failures, "\n")
				if wantFailure == "" && !res.Correct {
					t.Errorf("%s: %d of %d failed: %s", run, res.Failed, res.Attempted, failures)
				}
				if wantFailure != "" && (res.Correct || !strings.Contains(failures, wantFailure)) {
					t.Errorf("%s: the injected fault went unnoticed: correct=%v, failures: %s", run, res.Correct, failures)
				}
				want := map[string]string{}
				for _, m := range list {
					want[m.Name] = m.Unit
				}
				for n, m := range res.Metrics {
					if unit, ok := want[n]; !ok {
						t.Errorf("%s: emits %q, which BENCHMARK.json does not declare", run, n)
					} else if unit != m.Unit {
						t.Errorf("%s: %q has unit %q, declared %q", run, n, m.Unit, unit)
					}
					delete(want, n)
					if strings.HasPrefix(n, "wal.") && !durable && m.Value != 0 {
						t.Errorf("%s: %s = %v on a workload without durability", run, n, m.Value)
					}
				}
				var missing []string
				for n := range want {
					missing = append(missing, n)
				}
				sort.Strings(missing)
				if len(missing) > 0 {
					t.Errorf("%s: declared but not emitted: %v", run, missing)
				}
			}(w.durable)
		}
	}
	wg.Wait()
}

// TestFailedRunExitsNonZero runs the program as the command line would, with
// a window too short for minSamples samples: percentiles from fewer are not
// reported as a passing run, and a run that is not correct exits non-zero.
func TestFailedRunExitsNonZero(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	code := realMain([]string{"-workload", "read_hot", "-trace", "0", "-seconds", "0.05", "-warmup", "0.05", "-out", t.TempDir()}, &out, &out)
	if code == 0 || !strings.Contains(out.String(), "samples in the timed window") {
		t.Fatalf("a window too short for its percentiles passed: exit code %d\n%s", code, out.String())
	}
}
