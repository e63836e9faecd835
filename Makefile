# VIBe build and verification targets. `make check` is the gate every
# change must pass: it race-checks the parallel runner and the shared
# metrics collector in addition to the regular suite, since bugs there
# would silently corrupt assembled reports rather than fail loudly. The
# engine and NIC-protocol packages are raced too: their waiters and
# retransmission-window records are reused storage.

GO ?= go

.PHONY: all build fmt vet test race chaos failover-smoke vibed-smoke check cover bench bench-smoke bench-sim profile quick clean

all: check

build:
	$(GO) build ./...

# Fails listing the files gofmt would rewrite.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/runner/... ./internal/metrics/... ./internal/trace/... ./internal/serve/... ./internal/pipeline/... ./internal/sim/ ./internal/nicsim/

# Seeded chaos soak: run CHAOS_PLANS random fault plans against the VIA
# stack under the race detector — the crossbar soak (TestChaosSoak) plus
# the routed-topology soak (TestChaosSoakRouted: fat-tree/dragonfly/torus
# fabrics under topology-aware plans that also kill switches and
# inter-switch links) — plus the span-accounting integrity sweep (spans
# must never leak or double-close under faults). Every wait in the soak is
# bounded, so a hang is a simulation deadlock and fails the run; the
# timeout bounds the wall clock regardless.
CHAOS_PLANS ?= 200
chaos:
	VIBE_CHAOS_PLANS=$(CHAOS_PLANS) $(GO) test -race -run 'TestChaosSoak|TestChaosSoakRouted|TestSpanIntegrityUnderFaults' -timeout 10m ./internal/via/

# Failover smoke: rerun the XFAILOVER spine-outage experiment in quick
# mode and require byte-identical results against the committed baseline
# (-tol 0), with the trace and virtual-time profile written alongside for
# CI artifact upload. A diff here means failover routing, the element
# oracle, or the recovery path changed behavior.
failover-smoke: build
	mkdir -p artifacts
	$(GO) run ./cmd/vibe-report -quick -exp XFAILOVER \
	  -trace-out artifacts/xfailover_trace.json \
	  -profile-out artifacts/xfailover_profile.folded \
	  -compare internal/results/testdata/baseline-xfailover-quick.json -tol 0 \
	  > artifacts/xfailover_report.txt
	tail -n 30 artifacts/xfailover_report.txt

# Daemon smoke: boot the vibed service on a random port, submit the full
# quick registry over HTTP, follow the SSE stream to completion, scrape
# /metrics (daemon gauges plus the span histogram families), download the
# result set and diff it against the committed quick baseline at -tol 0,
# then resubmit identically and require a byte-identical cache hit. The
# daemon binary is built first so a cmd/vibed compile break fails here
# too; artifacts land in artifacts/ for CI upload.
vibed-smoke: build
	mkdir -p artifacts
	VIBED_SMOKE_ARTIFACTS=$(CURDIR)/artifacts \
	  $(GO) test -run TestVibedSmoke -count=1 -v ./internal/serve/

check: fmt vet build test race

# Coverage over every package, with the per-package summary printed and
# the profile left in cover.out for `go tool cover -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -1

# Time the quick-mode registry (sequential vs parallel) and write
# BENCH_suite.json.
bench: build
	$(GO) run ./cmd/vibe-report -quick -bench BENCH_suite.json

# CI bench smoke: rerun the quick bench to bench_smoke.json and fail if
# the dispatch speedup (actor vs goroutine process model — a same-machine
# ratio, so comparable across hosts) regressed more than 20% against the
# committed BENCH_suite.json. Also runs the engine, vmem and nicsim
# microbenchmarks in short mode (yield, actor step, schedule, alloc,
# resolve, window add/ack) so their ns/op and allocs/op ride along in the
# uploaded artifact; absolute times are machine-dependent and are
# reported, not gated.
bench-smoke: build
	$(GO) run ./cmd/vibe-report -quick -bench bench_smoke.json -bench-gate BENCH_suite.json
	$(GO) test -bench . -benchmem -benchtime 1000x -run '^$$' ./internal/sim/ ./internal/vmem/ ./internal/nicsim/ | tee bench_sim.txt

# Microbenchmarks for the simulation engine, simulated-memory and NIC
# protocol hot paths.
bench-sim:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim/ ./internal/vmem/ ./internal/nicsim/

# CPU- and memory-profile one sequential full-registry pass and print the
# flat CPU profile, the flat CPU share per package, and the top allocation
# sites by bytes and by objects allocated. The profiles and the test
# binary they symbolize against stay in artifacts/ for further
# `go tool pprof` digging.
#
# PKGSHARE sums the flat% column of `pprof -top` by package: a function
# name's package is everything before the first dot after its last slash,
# with receiver and type-argument brackets cut off first (they may contain
# slashes of their own).
PKGSHARE = awk '$$1 != "flat" && $$2 ~ /%$$/ && NF >= 6 { \
	  name = $$6; sub(/[(\[].*/, "", name); i = match(name, /[^\/]*$$/); \
	  j = index(substr(name, i), "."); pkg = j ? substr(name, 1, i + j - 2) : name; \
	  v = $$2; sub(/%/, "", v); share[pkg] += v } \
	  END { for (p in share) if (share[p] > 0) printf "%6.2f%%  %s\n", share[p], p }' | sort -rn
profile:
	mkdir -p artifacts
	$(GO) test -run '^$$' -bench '^BenchmarkRegistryFull$$' -benchtime 1x \
	  -cpuprofile artifacts/registry.cpu.pprof -memprofile artifacts/registry.mem.pprof \
	  -o artifacts/runner.test ./internal/runner/
	$(GO) tool pprof -top -nodecount 40 artifacts/runner.test artifacts/registry.cpu.pprof
	@echo "flat CPU share by package:"
	@$(GO) tool pprof -top -nodecount 0 artifacts/runner.test artifacts/registry.cpu.pprof 2>/dev/null | $(PKGSHARE)
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 20 artifacts/runner.test artifacts/registry.mem.pprof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 20 artifacts/runner.test artifacts/registry.mem.pprof

# Smoke-run the full registry in quick mode.
quick: build
	$(GO) run ./cmd/vibe -bench suite -quick

clean:
	$(GO) clean ./...
	rm -f vibe vibe-report
