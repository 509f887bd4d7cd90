# Tiered checks for the parallel front-end reproduction.
#
#   make test          tier 1: build + full test suite (what CI gates on;
#                      includes the golden determinism suite)
#   make test-alloc    tier 1.5: allocation guards (zero-alloc cycle loop,
#                      zero-alloc gap warming, no fragment rebuilds across
#                      sampled windows, bounded /metrics scrape) run
#                      verbosely on their own
#   make test-robust   tier 1.5: fault-tolerance suite under -race (panic
#                      isolation, retries, budget, watchdog, journal/resume,
#                      SIGKILL + resume round trip, graceful shutdown)
#   make test-sample   tier 1.5: tape-acceleration suite (sampled-vs-full
#                      statistical gate, zero-alloc tape seek/replay guards,
#                      batch decode vs Step differential)
#   make test-obs      tier 1.5: observability suite (span tracer alloc guard
#                      and ordered release, SSE /events ordering across worker
#                      counts under -race, live scrape of accelerated runs,
#                      Chrome trace round-trip + merge, traced-vs-untraced
#                      determinism)
#   make test-store    tier 1.5: persistent artifact store suite under -race
#                      (codec round-trips, crash/corruption battery, GC
#                      property test, cross-process warm-run determinism,
#                      SIGKILL-during-store-write recovery, stores and
#                      journals written by older versions still replaying)
#   make test-perfbench tier 1.5: the cold-sweep benchmark's own tests
#                      (perfbench/ is a separate module, outside ./...)
#   make vet           static hygiene: go vet + gofmt -l (fails on diff);
#                      runs as part of `make test`
#   make race          tier 2: vet + race detector over the short suite
#   make fuzz          tier 3: short-budget fuzz smokes (differential targets)
#   make bench         front-end comparison benchmarks (no -race)
#   make bench-stat    benchstat-ready hot-path runs (BENCH_COUNT=10)
#   make all           tiers 1-3 in order
#
# Sweep performance is measured by the cold-sweep benchmark, not here:
# python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 40 --trace 0

GO      ?= go
FUZZTIME ?= 10s

.PHONY: all test test-alloc test-robust test-sample test-obs test-store test-perfbench vet race fuzz bench bench-stat fmt

all: test test-alloc race fuzz

test: vet test-robust test-sample test-obs test-store test-perfbench
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
# subset), the zero-alloc tape seek/replay guards, and the batch decoder's
# differential against Step. The full 12-benchmark gate at paper budgets is
# `pfe-bench -validate-sampling`.
test-sample:
	$(GO) test -count=1 . -run 'TestSample|TestSampled'
	$(GO) test -count=1 ./internal/experiments/ -run ValidateSampling
	$(GO) test -count=1 ./internal/artifact/ -run 'TestTapeSeek|TestFillMatchesStep'
	$(GO) test -count=1 ./internal/stats/ -run 'TestSummarize|TestSampleWindows|TestTCrit95'

# Observability tier: the sweep span tracer (nil-tracer alloc guard, ordered
# head/tail release, Chrome/NDJSON round-trips), the /events SSE stream
# (deterministic cell order across worker counts, under -race), the /metrics +
# /status scrape of sampled runs under -race, the sweep/cycle trace
# merge in pfe-trace, and the traced-vs-untraced bit-identity gate.
test-obs:
	$(GO) test -race -count=1 ./internal/obs/span/
	$(GO) test -race -count=1 ./internal/obs/ -run 'TestEventsStream|TestLiveScrape'
	$(GO) test -count=1 ./cmd/pfe-trace/ -run TestMerge
	$(GO) test -count=1 ./cmd/pfe-bench/ -run 'TestTracing|TestSweepTrace'

# Persistent artifact store tier, always under -race: the store is shared
# mutable state hit from every sweep worker, so its unit battery (durability,
# corruption quarantine, LRU GC property test), the two-tier cache seam
# (warm packs included), the compatibility fixtures (a store and a journal
# written by older versions, and the config-hash golden that keys both), and
# the cross-process integration tests (warm-run bit-identity, SIGKILL
# mid-write, end-to-end blob corruption) all run race-enabled.
test-store:
	$(GO) test -race -count=1 ./internal/artifact/store/
	$(GO) test -race -count=1 ./internal/artifact/ -run 'TestTapeCodec|TestProgramCodec|TestCacheDisk|TestCacheWithoutStore|TestWarmState'
	$(GO) test -race -count=1 ./internal/experiments/ -run 'TestCellHashStable|TestResumeParentJournal|TestStoreParent'
	$(GO) test -race -count=1 ./cmd/pfe-bench/ -run 'TestStore'

# The benchmark driver is a module of its own (it compiles the repository
# through a replace directive), so `go test ./...` at the root skips it.
test-perfbench:
	cd perfbench && $(GO) test .

# Allocation guards, run on their own so a perf PR can iterate on just
# them: the steady-state cycle loop must not allocate at all, neither must
# functional warming once the fragment table holds a gap's fragments, a
# repeated sampled window must build no fragment, and a /metrics scrape
# must stay bounded. All also run as part of `make test`.
test-alloc:
	$(GO) test ./internal/sim/ -run 'TestStepZeroAllocSteadyState|TestRepeatedWindowBuildsNoFragments' -count=1 -v
	$(GO) test . -run TestWarmGapZeroAlloc -count=1 -v
	$(GO) test ./internal/pool/ ./internal/obs/ -run 'Alloc|Scrape' -count=1 -v

race:
	$(GO) vet ./...
	$(GO) test -race -short ./...

# Fuzz smokes: -fuzzminimizetime caps the minimizer, which otherwise spends
# up to 60s per newly-interesting input and makes short budgets useless.
fuzz:
	$(GO) test ./internal/emu/ -run='^$$' -fuzz=FuzzEmuVsInterp -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/emu/ -run='^$$' -fuzz=FuzzFillMatchesStep -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/program/ -run='^$$' -fuzz=FuzzProgramAsm -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/sim/ -run='^$$' -fuzz=FuzzFrontEndsAgree -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/backend/ -run='^$$' -fuzz=FuzzBackendAgainstReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/artifact/ -run='^$$' -fuzz=FuzzTapeBlockCodec -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x
	$(GO) test ./internal/artifact/ -run='^$$' -fuzz=FuzzFillMatchesStep -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# bench-stat emits benchstat-ready samples of the hot-path suite (ns/op,
# allocs/op, ns/sim-cycle per front-end config) and of tape recording
# (ns/inst to record and encode the suite at fig8-sampled's tape length). Record before and after a
# perf change, then `benchstat old.txt new.txt`:
#
#   make bench-stat > old.txt
#   ... apply change ...
#   make bench-stat > new.txt
BENCH_COUNT ?= 10
bench-stat:
	$(GO) test ./internal/sim -run='^$$' -bench BenchmarkHotSim -benchmem -count=$(BENCH_COUNT)
	$(GO) test ./internal/artifact -run='^$$' -bench BenchmarkRecordTape -benchtime=1x -count=$(BENCH_COUNT)

fmt:
	gofmt -l -w .
