# Tiered checks for the parallel front-end reproduction.
#
#   make test          tier 1: build + full test suite (what CI gates on;
#                      includes the golden determinism suite)
#   make test-alloc    tier 1.5: allocation guards (zero-alloc cycle loop,
#                      bounded /metrics scrape) run verbosely on their own
#   make test-robust   tier 1.5: fault-tolerance suite under -race (panic
#                      isolation, retries, budget, watchdog, journal/resume,
#                      SIGKILL + resume round trip, graceful shutdown)
#   make test-sample   tier 1.5: tape-acceleration suite (sampled-vs-full
#                      statistical gate, sliced determinism across worker
#                      counts, zero-alloc tape seek/replay guards)
#   make test-obs      tier 1.5: observability suite (span tracer alloc guard
#                      and ordered release, SSE /events ordering across worker
#                      counts under -race, live scrape of accelerated runs,
#                      Chrome trace round-trip + merge, traced-vs-untraced
#                      determinism)
#   make test-store    tier 1.5: persistent artifact store suite under -race
#                      (codec round-trips, crash/corruption battery, GC
#                      property test, cross-process warm-run determinism,
#                      SIGKILL-during-store-write recovery)
#   make test-fabric   tier 1.5: distributed sweep fabric suite under -race
#                      (lease/heartbeat/epoch-fencing battery, batched leases,
#                      blob artifact plane with CRC-verified transfers,
#                      network chaos transport, journal epoch fencing on
#                      resume, -local loopback determinism, SIGKILL-a-worker
#                      recovery with real coordinator/worker processes)
#   make test-perfbench tier 1.5: the cold-sweep benchmark's own tests
#                      (perfbench/ is a separate module, outside ./...)
#   make vet           static hygiene: go vet + gofmt -l (fails on diff);
#                      runs as part of `make test`
#   make race          tier 2: vet + race detector over the short suite
#   make fuzz          tier 3: short-budget fuzz smokes (differential targets)
#   make bench         front-end comparison benchmarks (no -race)
#   make bench-stat    benchstat-ready hot-path runs (BENCH_COUNT=10)
#   make bench-json    provenance-stamped JSON report (BENCH_<sha>.json);
#                      BENCH_LOCAL=N records through the distributed path
#   make bench-compare regression gate: OLD=a.json NEW=b.json [TOL=0.5];
#                      OLD=store resolves the baseline from the artifact store
#   make all           tiers 1-3 in order

GO      ?= go
FUZZTIME ?= 10s

# bench-json knobs: which experiment and budgets go into the recorded report.
# BENCH_LOCAL > 0 records through the distributed path (-local N loopback
# fleet) — bit-identical rows, plus per-worker lease accounting in the report.
BENCH_EXP     ?= fig8
BENCH_WARMUP  ?= 20000
BENCH_MEASURE ?= 60000
BENCH_LOCAL   ?= 0
GIT_SHA       := $(shell git rev-parse --short HEAD 2>/dev/null || echo nogit)

.PHONY: all test test-alloc test-robust test-sample test-obs test-store test-fabric test-perfbench vet race fuzz bench bench-stat bench-json bench-compare fmt

all: test test-alloc race fuzz

test: vet test-robust test-sample test-obs test-store test-fabric test-perfbench
	$(GO) build ./...
	$(GO) test ./...

# Static hygiene gate: go vet plus a gofmt cleanliness check that fails (and
# names the offending files) if any file needs reformatting.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Fault-tolerance tier, always under -race: the retry/journal/drain paths
# are exactly the ones that run concurrently, so exercising them without the
# race detector would miss their most likely failure mode. The integration
# tests (SIGKILL + resume, injected faults, SIGINT drain) build and drive a
# real pfe-bench binary.
test-robust:
	$(GO) test -race -count=1 ./internal/journal/ ./cmd/pfe-bench/ \
		./internal/experiments/ -run 'Robust|Retri|Budget|Cancel|Resume|Inject|Kill|Sigint|Journal'
	$(GO) test -race -count=1 ./internal/sim/ -run 'Watchdog|Stall'
	$(GO) test -race -count=1 ./internal/obs/ -run 'Shutdown|Close'

# Tape-acceleration tier: the statistical gate behind the sampled numbers
# (every benchmark's sampled-vs-full error within its own 95% CI on a suite
# subset), the sliced determinism suite (bit-identical results across slice
# and worker counts), and the zero-alloc tape seek/replay guards. The full
# 12-benchmark gate at paper budgets is `pfe-bench -validate-sampling`.
test-sample:
	$(GO) test -count=1 . -run 'TestSample|TestSampled|TestSliced'
	$(GO) test -count=1 ./internal/experiments/ -run ValidateSampling
	$(GO) test -count=1 ./internal/artifact/ -run 'TestTapeSeek'
	$(GO) test -count=1 ./internal/stats/ -run 'TestSummarize|TestSampleWindows|TestTCrit95'

# Observability tier: the sweep span tracer (nil-tracer alloc guard, ordered
# head/tail release, Chrome/NDJSON round-trips), the /events SSE stream
# (deterministic cell order across worker counts, under -race), the /metrics +
# /status scrape of sampled and sliced runs under -race, the sweep/cycle trace
# merge in pfe-trace, and the traced-vs-untraced bit-identity gate.
test-obs:
	$(GO) test -race -count=1 ./internal/obs/span/
	$(GO) test -race -count=1 ./internal/obs/ -run 'TestEventsStream|TestLiveScrape'
	$(GO) test -count=1 ./cmd/pfe-trace/ -run TestMerge
	$(GO) test -count=1 ./cmd/pfe-bench/ -run 'TestTracing|TestSweepTrace'

# Persistent artifact store tier, always under -race: the store is shared
# mutable state hit from every sweep worker, so its unit battery (durability,
# corruption quarantine, LRU GC property test), the two-tier cache seam, and
# the cross-process integration tests (warm-run bit-identity, store-resolved
# -compare, SIGKILL mid-write, end-to-end blob corruption) all run race-enabled.
test-store:
	$(GO) test -race -count=1 ./internal/artifact/store/
	$(GO) test -race -count=1 ./internal/artifact/ -run 'TestTapeCodec|TestProgramCodec|TestCacheDisk|TestCacheWithoutStore'
	$(GO) test -race -count=1 ./cmd/pfe-bench/ -run 'TestStore'

# Distributed sweep fabric tier, always under -race: the lease table, the
# heartbeat/expiry scanner and the chaos transport are concurrent by
# construction, so the whole battery runs race-enabled — the protocol unit
# tests (epoch fencing, TTL expiry/requeue, zombie reports, blob endpoint
# serve/publish/CRC-reject, batched lease grants), the artifact-plane seam
# (remote fetch/publish tier, blob relay, cross-cache read-through
# bit-identity), the journal epoch-fencing resume tests, the -local loopback
# determinism suite, and the real-process integration drills (SIGKILL a
# leased worker mid-sweep, network chaos over a full sweep including corrupt
# blob transfers, wire-once-per-worker accounting, usage-error contracts).
test-fabric:
	$(GO) test -race -count=1 ./internal/fabric/
	$(GO) test -race -count=1 ./internal/artifact/ \
		-run 'TestRemote|TestNilRemote|TestBlobRelay|TestCacheRemote'
	$(GO) test -race -count=1 ./internal/experiments/ \
		-run 'Fabric|ParseInject|InProcessInject|EnumerateCells|ResumeFenced|Prefetch'
	$(GO) test -race -count=1 ./cmd/pfe-bench/ -run 'TestFabric'

# The benchmark driver is a module of its own (it compiles the repository
# through a replace directive), so `go test ./...` at the root skips it.
test-perfbench:
	cd perfbench && $(GO) test .

# Allocation guards, run on their own so a perf PR can iterate on just
# them: the steady-state cycle loop must not allocate at all, and a
# /metrics scrape must stay bounded. Both also run as part of `make test`.
test-alloc:
	$(GO) test ./internal/sim/ -run TestStepZeroAllocSteadyState -count=1 -v
	$(GO) test ./internal/pool/ ./internal/obs/ -run 'Alloc|Scrape' -count=1 -v

race:
	$(GO) vet ./...
	$(GO) test -race -short ./...

# Fuzz smokes: -fuzzminimizetime caps the minimizer, which otherwise spends
# up to 60s per newly-interesting input and makes short budgets useless.
fuzz:
	$(GO) test ./internal/emu/ -run='^$$' -fuzz=FuzzEmuVsInterp -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/program/ -run='^$$' -fuzz=FuzzProgramAsm -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/sim/ -run='^$$' -fuzz=FuzzFrontEndsAgree -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/backend/ -run='^$$' -fuzz=FuzzBackendAgainstReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/artifact/ -run='^$$' -fuzz=FuzzTapeBlockCodec -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# bench-stat emits benchstat-ready samples of the hot-path suite (ns/op,
# allocs/op, ns/sim-cycle per front-end config). Record before and after a
# perf change, then `benchstat old.txt new.txt`:
#
#   make bench-stat > old.txt
#   ... apply change ...
#   make bench-stat > new.txt
BENCH_COUNT ?= 10
bench-stat:
	$(GO) test ./internal/sim -run='^$$' -bench BenchmarkHotSim -benchmem -count=$(BENCH_COUNT)

# bench-json records a provenance-stamped machine-readable report for the
# current commit. It builds a real binary first: `go build` embeds the VCS
# revision via debug.ReadBuildInfo, `go run` does not.
bench-json:
	$(GO) build -o bin/pfe-bench ./cmd/pfe-bench
	./bin/pfe-bench -exp $(BENCH_EXP) -warmup $(BENCH_WARMUP) -measure $(BENCH_MEASURE) \
		$(if $(filter-out 0,$(BENCH_LOCAL)),-local $(BENCH_LOCAL)) \
		-json BENCH_$(GIT_SHA).json
	@echo wrote BENCH_$(GIT_SHA).json

# bench-compare gates NEW against OLD: exits non-zero on an IPC regression
# beyond TOL percent (or a host-throughput collapse beyond TTOL percent).
# Flags must precede the positional report paths.
TOL  ?= 0.5
TTOL ?= 25
bench-compare:
	$(GO) build -o bin/pfe-bench ./cmd/pfe-bench
	./bin/pfe-bench -tol $(TOL) -ttol $(TTOL) -compare $(OLD) $(NEW)

fmt:
	gofmt -l -w .
