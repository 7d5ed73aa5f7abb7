# Convenience targets for the sccsim reproduction.

GO ?= go

.PHONY: all check build fmt-check test test-race race-obs obs-overhead fuzz-smoke vet quick bench bench-quick bench-check experiments cover clean docs-check serve verify-analytic load-check

all: build vet test

# Tier-1 gate: compile, vet, gofmt-clean sources, full test suite,
# race-enabled observability and engine packages, documentation
# contract, analytic-backend accuracy smoke, the observability cost
# bound, the benchmark module.
check: build vet fmt-check test race-obs docs-check verify-analytic obs-overhead bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when gofmt would reformat
# any tracked Go file — the separate bench/ module's included.
fmt-check:
	@files=$$(git ls-files '*.go') && out=$$(gofmt -l $$files) && \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

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
# registered HTTP route and heads no section with a route the server
# lacks, docs/DESIGN-SPACE.md names every Spec field
# and architecture axis, and relative links in README/docs resolve
# (see cmd/docscheck).
docs-check:
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

# Zero-overhead contract: BenchmarkObservabilityOverhead runs every
# quick-scale Barnes-Hut grid point with observability off and fully on
# (metrics registry and structured logging), in alternating pairs within
# one process, and fails when the median on/off wall-time ratio pooled
# over its rounds exceeds 1.05, or when a pair's results differ.
# The enabled cost sits close to the bound, so a failed measurement is
# retried once: a transient load burst on a shared machine can skew one
# attempt, and a real instrumentation regression fails both.
obs-overhead:
	@$(GO) test -run '^$$' -bench '^BenchmarkObservabilityOverhead$$' -benchtime 1x . || { \
		echo "obs-overhead: retrying once to rule out transient machine load"; \
		$(GO) test -run '^$$' -bench '^BenchmarkObservabilityOverhead$$' -benchtime 1x .; }

# Seed-plus-30s coverage-guided fuzz of the two properties most worth
# hammering: the verified simulator against the oracle model
# (FuzzSimConfig) and the trace binary format round trip
# (FuzzTraceRoundTrip); then 15s each of the service's two untrusted
# inputs: request bodies (FuzzResolveRequest: no panic, and an accepted
# body's experiment re-encodes to the same content key) and a cluster
# worker's point responses (FuzzShardMerge: a rejected envelope yields
# no point, and a remote point is used only when it carries the
# configuration it was asked for); and 15s of both reuse-distance
# profile builders against their naive references (FuzzBuildProfile).
# Each target runs alone (go test allows one -fuzz pattern per
# invocation).
# -fuzzminimizetime 2s caps how long the fuzzer minimizes each new
# interesting input: at the default 60s it stops executing while it
# minimizes, and FuzzSimConfig sat idle for most of its 30s. A failing
# input still fails the run and is written to testdata; only its
# minimization is capped.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSimConfig$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime 30s -fuzzminimizetime 2s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzResolveRequest$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzShardMerge$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/explorer
	$(GO) test -run '^$$' -fuzz '^FuzzBuildProfile$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/rdmodel

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
