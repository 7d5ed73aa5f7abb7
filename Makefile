# Convenience targets for the sccsim reproduction.

GO ?= go

.PHONY: all check build test test-race race-obs obs-overhead obs-overhead-run fuzz-smoke vet quick bench bench-quick bench-json bench-compare bench-search bench-search-run bench-search-write bench-check experiments cover clean docs-check serve verify-analytic load-check

all: build vet test

# Tier-1 gate: compile, vet, full test suite, race-enabled observability
# and engine packages, documentation contract, analytic-backend accuracy
# smoke, the benchmark module.
check: build vet test race-obs docs-check verify-analytic obs-overhead bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Skip the paper-scale headline run (a few minutes).
quick:
	$(GO) test -short ./...

# Race-enabled run of the concurrency-bearing packages at QuickScale:
# the shared-trace contract (internal/sim), the sweep engine
# (internal/explorer, internal/costperf, plus the facade API), the
# cross-process trace disk cache (internal/trace), the verification
# layer (internal/verify), and the HTTP service (internal/serve).
test-race:
	$(GO) test -race -short ./internal/sim/... ./internal/explorer/... ./internal/costperf/... ./internal/trace/... ./internal/verify/... ./internal/serve/... .

# Race-enabled run of the instrumentation layer, the engine that
# drives it concurrently, the HTTP service that shares one registry
# across jobs, and the simulator layer whose shared-trace contract the
# engine relies on (TestRunSharedProgramConcurrent) — cheap enough to
# sit inside `make check`.
# -short keeps the explorer's full-grid oracle diff (which `test` runs
# uninstrumented) to a representative pair of cache sizes here.
race-obs:
	$(GO) test -race -short ./internal/obs ./internal/explorer ./internal/serve ./internal/sim ./internal/cache ./internal/scc

# The benchmark program (bench/, see BENCHMARK.json) is its own module
# (`replace sccsim => ../`), so `go build ./...` and `go test ./...`
# never compile it: vet and test it here so a facade change that breaks
# it fails the gate instead of the benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Documentation contract: every exported identifier in the facade and
# the serve package carries a doc comment, docs/API.md documents every
# registered HTTP route, docs/DESIGN-SPACE.md names every Spec field
# and architecture axis, and relative links in README/docs resolve
# (see cmd/docscheck).
docs-check:
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck -api docs/API.md -design docs/DESIGN-SPACE.md -links README.md,docs . ./internal/serve

# Run the HTTP simulation service locally (see docs/API.md).
serve:
	$(GO) run ./cmd/sccserve -addr :8347

# Load/chaos gate for the distributed path: boot an in-process
# coordinator with 3 workers, fire 1200 concurrent mixed
# sweep/point/search requests while killing/restarting workers and
# injecting latency, and gate p99 latency, shed rate, availability and
# sweep byte-identity against the committed BENCH_load.json bounds
# (see cmd/sccload). The bounds are deliberately generous — this
# catches lost availability and identity violations, not perf drift.
load-check:
	$(GO) run ./cmd/sccload -baseline BENCH_load.json

# Analytic-backend accuracy smoke: cross-validate the reuse-distance
# model against the exact simulator on one workload's full grid at
# quick scale. The full four-workload pass runs in `go test .`
# (TestCrossValidateAllWorkloads); this one-workload gate is cheap
# enough for `make check` and CI.
verify-analytic:
	$(GO) run ./cmd/sccexplore -crossval barnes-hut -scale quick -quiet

# Zero-overhead contract smoke: run the same quick-scale sweep with
# observability fully disabled and fully enabled (metrics registry,
# structured logging, manifest capture) and fail when the enabled run's
# median per-point throughput drops more than OBS_THRESHOLD below the
# disabled one. This is the executable form of the nil-disabled
# contract: instrumentation must stay in the noise. Points run
# sequentially (-parallel 1) so the timing compares simulator work, not
# scheduler contention; the median is the contract, and the per-point
# outlier floor is loosened (-severe-mult) because individual
# quick-scale points run ~10-30ms and jitter by double-digit
# percentages on a loaded machine.
# A failed measurement is retried once: a transient load burst on a
# shared machine can skew one whole sweep, and a real instrumentation
# regression fails both attempts.
OBS_THRESHOLD ?= 0.05
obs-overhead:
	@$(MAKE) --no-print-directory obs-overhead-run || { 		echo "obs-overhead: retrying once to rule out transient machine load"; 		$(MAKE) --no-print-directory obs-overhead-run; }

obs-overhead-run:
	$(GO) run ./cmd/sccexplore -csv barnes-hut -scale quick -quiet -parallel 1 -obs off -manifest /tmp/sccsim_obs_off.json > /dev/null
	$(GO) run ./cmd/sccexplore -csv barnes-hut -scale quick -quiet -parallel 1 -obs on -manifest /tmp/sccsim_obs_on.json > /dev/null
	$(GO) run ./cmd/benchcompare -threshold $(OBS_THRESHOLD) -severe-mult 10 /tmp/sccsim_obs_off.json /tmp/sccsim_obs_on.json

# Seed-plus-30s coverage-guided fuzz of the two properties most worth
# hammering: the verified simulator against the oracle model
# (FuzzSimConfig) and the trace binary format round trip
# (FuzzTraceRoundTrip); then 15s of the HTTP service's one untrusted
# input, request bodies (FuzzResolveRequest: no panic, and an accepted
# body's experiment re-encodes to the same content key). Each target
# runs alone (go test allows one -fuzz pattern per invocation).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSimConfig$$' -fuzztime 30s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime 30s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzResolveRequest$$' -fuzztime 15s ./internal/serve

# Machine-readable sweep benchmark: quick-scale Barnes-Hut sweeps on
# both backends, merged into one run manifest (timings, utilization,
# per-point stats keyed by backend) committed as BENCH_sweep.json to
# track the engine's — and the analytic model's — performance across
# PRs.
bench-json:
	$(GO) run ./cmd/sccexplore -csv barnes-hut -scale quick -quiet -manifest /tmp/sccsim_bench_exact.json > /dev/null
	$(GO) run ./cmd/sccexplore -csv barnes-hut -scale quick -quiet -backend analytic -manifest /tmp/sccsim_bench_analytic.json > /dev/null
	$(GO) run ./cmd/benchcompare -merge BENCH_sweep.json /tmp/sccsim_bench_exact.json /tmp/sccsim_bench_analytic.json

# Perf regression gate: rerun the two-backend benchmark sweep and diff
# it point by point against the committed BENCH_sweep.json. Fails when
# the median per-point sim_cycles_per_us ratio drops more than 10%,
# when any single point drops more than 30%, or when results
# (cycles/refs) silently change. Override the tolerance with
# THRESHOLD=0.15.
THRESHOLD ?= 0.10
bench-compare:
	$(GO) run ./cmd/sccexplore -csv barnes-hut -scale quick -quiet -manifest /tmp/sccsim_bench_cur_exact.json > /dev/null
	$(GO) run ./cmd/sccexplore -csv barnes-hut -scale quick -quiet -backend analytic -manifest /tmp/sccsim_bench_cur_analytic.json > /dev/null
	$(GO) run ./cmd/benchcompare -merge /tmp/sccsim_bench_current.json /tmp/sccsim_bench_cur_exact.json /tmp/sccsim_bench_cur_analytic.json
	$(GO) run ./cmd/benchcompare -threshold $(THRESHOLD) BENCH_sweep.json /tmp/sccsim_bench_current.json

# Search-efficiency regression gate: run the fixed ~16k-point adaptive
# search benchmark and diff it against the committed BENCH_search.json
# (see cmd/benchsearch). The frontier and work counts are deterministic
# and gated at SEARCH_THRESHOLD; the calibration-normalized wall time is
# gated loosely (it jitters with machine load) and, like obs-overhead,
# a failed run is retried once before it counts.
SEARCH_THRESHOLD ?= 0.10
bench-search:
	@$(MAKE) --no-print-directory bench-search-run || { 		echo "bench-search: retrying once to rule out transient machine load"; 		$(MAKE) --no-print-directory bench-search-run; }

bench-search-run:
	$(GO) run ./cmd/benchsearch -threshold $(SEARCH_THRESHOLD)

# Regenerate the committed search baseline after an intentional change
# to the search pipeline or the benchmark experiment.
bench-search-write:
	$(GO) run ./cmd/benchsearch -write

# Regenerate every paper table/figure at paper scale.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

bench-quick:
	SCCSIM_BENCH_SCALE=quick $(GO) test -run xxx -bench . -benchtime 1x ./...

# All experiments via the CLI.
experiments:
	$(GO) run ./cmd/sccexplore -exp all

cover:
	$(GO) test -short -cover ./...

clean:
	$(GO) clean ./...
