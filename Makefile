GO ?= go

# Output file of the bench-json target; override per PR or in CI, e.g.
#   make bench-json BENCH_OUT=BENCH_ci.json
BENCH_OUT ?= BENCH_pr10.json

# Circuit scale of the bench-json run. 1 = the paper's actual cell
# counts (s35932: 17.9k cells) — the default since the memory-layout
# overhaul; the recorded env block pins scale+cells so benchdiff
# refuses cross-scale comparisons.
BENCH_SCALE ?= 1

# Worker goroutines for the bench-json run (the wavefront scheduler's
# headline numbers are parallel; set 0 for the sequential reference).
BENCH_WORKERS ?= 8

# Baseline the bench gate compares against, and the allowed per-mode
# delay drift in percent. Delays are deterministic functions of the
# design, so the tolerance only absorbs FP-level churn from intentional
# numeric changes; refresh the baseline when one lands.
BENCH_BASELINE ?= ci/bench_baseline.json
BENCH_TOL ?= 0.5

# Allowed peak-memory (max_rss_bytes) growth in percent before the
# bench gate fails. Memory is a deterministic function of the data
# layout, so the tolerance only absorbs GC/runtime timing variance.
BENCH_MEM_TOL ?= 25

.PHONY: all check ci fmt-check vet staticcheck build test race race-server metrics-lint perfbench-check fuzz-short bench bench-json bench-gate bench-100k clean

all: check

# The full verification gate: vet, build, tests, and the race detector
# on the concurrency-sensitive packages.
check: vet build test race race-server

# Everything CI runs, reproducible locally with one command.
ci: fmt-check vet staticcheck build test race race-server metrics-lint perfbench-check fuzz-short bench-gate bench-100k

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck is optional locally (CI installs it); skip with a notice
# when the binary is absent so `make ci` works on minimal machines.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with worker concurrency and the
# shared telemetry instruments, plus a dedicated high-worker run of the
# scheduler parity/abort tests and the concurrent-session contract
# test (mixed Analyze/Reanalyze/Edit goroutines on one Design,
# bit-compared against serial references — DESIGN.md §11).
race:
	$(GO) test -race ./internal/core/ ./internal/delaycalc/ ./internal/obs/ ./internal/incremental/
	$(GO) test -race -run 'SchedulerParity|Dataflow' -count=1 ./internal/core/
	$(GO) test -race -run 'Concurrent' -count=1 .

# Race-detector pass over the serving layer: the daemon's handler,
# admission-control and coalescing tests (8-worker mixed read/edit
# traffic through one design) plus the introspection plane's
# serve/shutdown lifecycle.
race-server:
	$(GO) test -race -count=1 ./internal/server/ ./internal/obs/httpserve/

# Metric-vocabulary gate: the two-direction drift test (every name the
# runtime registers is declared in obs.AllMetrics and vice versa — see
# DESIGN.md §12 for the label-cardinality rules) plus vet, so a metric
# renamed or invented outside names.go fails here, not in a dashboard.
metrics-lint:
	$(GO) test -run 'TestMetricNameDrift|TestRegisterAllCoversVocabulary' -count=1 . ./internal/obs/
	$(GO) vet ./...

# The benchmark under perfbench/ is a nested module, so the root
# `go build ./...` never compiles it: vet and test it on its own so an
# API change that breaks the benchmark fails here.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short fuzz leg: each input parser's fuzz target — the .bench and
# SPEF readers and the ECO edit-batch JSON (parsed, then applied to a
# small design) — for a fixed 30 s, starting from its seed corpus plus
# the crashers committed under testdata/fuzz/. A crasher found here is
# fixed so the input returns an error, and committed there as a
# regression seed. Minimizing each
# new-coverage input is capped at 1 s: the seeds are whole extracted
# files, and the default 60 s cap spends the leg minimizing instead of
# fuzzing.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzParseBench$$' -fuzztime=30s -fuzzminimizetime=1s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime=30s -fuzzminimizetime=1s ./internal/spef/
	$(GO) test -run '^$$' -fuzz '^FuzzApplyBatch$$' -fuzztime=30s -fuzzminimizetime=1s ./internal/incremental/

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Machine-readable five-mode benchmark table (same schema as
# BENCH_pr1.json plus the env block, regenerated per PR). Wall-time
# spreads and per-layer numbers come from perfbench (BENCHMARK.json).
bench-json:
	$(GO) run ./cmd/xtalksta -preset s35932 -scale $(BENCH_SCALE) -workers $(BENCH_WORKERS) -json $(BENCH_OUT)

# Regression gate: run the small preset and compare each mode's delay
# against the checked-in baseline. Fails on drift beyond $(BENCH_TOL)%
# and on peak-memory growth beyond $(BENCH_MEM_TOL)%; arc-evaluation
# counts and compile time are reported warn-only.
bench-gate:
	$(GO) run ./cmd/xtalksta -preset s35932 -scale 0.02 -json BENCH_gate.json >/dev/null
	$(GO) run ./cmd/benchdiff -base $(BENCH_BASELINE) -new BENCH_gate.json -tol $(BENCH_TOL) -mem-tol $(BENCH_MEM_TOL)

# Capacity leg: the 100k-cell synthetic preset must compile and finish
# one Iterative analysis (DESIGN.md §15; the ROADMAP's scale target).
# ~2 minutes; runs in CI so memory-layout regressions that only show
# past paper scale are caught at the gate.
bench-100k:
	$(GO) run ./cmd/xtalksta -preset synth100k -mode iterative >/dev/null

clean:
	$(GO) clean ./...
	rm -f BENCH_gate.json
