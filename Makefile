# Mirrors .github/workflows/ci.yml — `make ci` runs exactly what CI runs.

GO ?= go

.PHONY: ci build fmt vet lint test race-stress fuzz bench-smoke metrics-smoke durability-smoke base-commit-check perf-gate bench-e2e bench-compare

ci: build fmt lint test race-stress fuzz bench-smoke metrics-smoke durability-smoke base-commit-check perf-gate

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# CI pins staticcheck@2024.1.1; locally the step is skipped (with a note)
# when the binary is not on PATH, so offline checkouts still pass.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs it pinned at 2024.1.1)"; \
	fi

# -shuffle=on catches inter-test ordering dependencies; the coverage
# summary prints the total statement coverage CI records.
test:
	$(GO) test -race -shuffle=on -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Re-runs the concurrency stress tests under the race detector with more
# repetitions than the plain test step, to shake out rare interleavings in
# the lock-free query path (snapshots, plan cache, migration handoffs).
race-stress:
	$(GO) test -race -count=3 -run 'Concurrent|Snapshot|COW' ./internal/site ./internal/qeg ./internal/fragment

# Differential fuzz of the XML scanner against encoding/xml (the oracle the
# tests keep): same accept-or-reject decision, same tree, on every input.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=30s ./internal/xmldb

# Every micro-benchmark, one iteration each: they must still build and run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Boots a real irisnetd on the demo topology and curls its observability
# endpoint: /healthz must answer ok, /metrics must expose the query series.
metrics-smoke:
	./scripts/metrics_smoke.sh

# A real irisnetd kill -9 on the demo topology: restart on the same
# -data-dir must set the recovery metrics, rehydrate the cache before any
# query, and serve a byte-equal answer.
durability-smoke:
	./scripts/durability_smoke.sh

# The base-commit rule that perf-gate and bench-compare share
# (scripts/base_commit.sh), run in a throwaway git repository: staged-only
# changes count as the change, a stray untracked file does not.
base-commit-check:
	./scripts/base_commit_check.sh

# Benchmarks HEAD against its base commit (scripts/base_commit.sh), the two
# taking turns one sample at a time, and fails when a watched benchmark
# (PATTERN in scripts/perf_gate.sh, the one list of them) is >15% slower
# in the median with every new sample slower than every old one. benchstat
# renders the comparison when installed; cmd/benchgate decides the verdict
# either way.
perf-gate:
	./scripts/perf_gate.sh

# The repository's one end-to-end benchmark (BENCHMARK.json): every workload,
# untraced then traced, ~4 minutes. Not part of `make ci`.
bench-e2e:
	bash benchmark/run.sh --workload all --seed 1 --seconds 20 --trace both

# Alternating parent/change runs of that benchmark fed to benchmark/compare
# (ten pairs per workload, ~40 minutes for all four). BASE=<commit> picks
# the parent. Not part of `make ci`.
bench-compare:
	./scripts/bench_compare.sh
