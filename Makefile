# CI entry points.  `make ci` is the gate: formatting, vet, build, tests,
# the 0-allocs/op hot-path guards, and a short benchmark smoke at a tiny
# workload scale.

GO ?= go
BENCH_SCALE ?= 0.005
FUZZTIME ?= 5s
# Minimum total statement coverage (percent) enforced by `make cover`.
COVER_FLOOR ?= 70

.PHONY: ci fmt vet build test test-allocs test-faults test-service race cover fuzz-smoke bench-smoke bench-test bench bench-sweep loc

# cover runs the full test suite (instrumented) and fails on any test
# failure, so ci does not also run the plain `test` target — that would
# execute every test twice for no extra guarantee.
ci: fmt vet build cover test-allocs test-faults test-service race fuzz-smoke bench-smoke bench-test

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-allocs re-runs the 0-allocs/op guards on the scheduler drain loop
# (events placed at completion marks included), the record pool every
# memory-hierarchy component keeps its per-request records in
# (TestPoolAllocationFree: Get after Put reuses a zeroed record), the
# steady-state load-hit, load-miss, store (stalled stores included),
# decay-tick, victim-selection, stream-refill, trace-replay (chunks decode
# in place from an in-memory trace, or from each reader's one staging
# buffer when read from a file) and stats-observe paths, a core that blocks
# on hit completions held as marks (TestBlockedOnHitsAllocationFree), the
# constant-allocation guard on the sweep digest, the host-bytes-per-L2-line
# budget of core.NewSystem, the host-bytes-per-L1-line budget of an L1's
# Init (TestL1InitBytesPerLine: an L1 is a tag store with no per-line power
# or decay state), the heap an opened trace file retains (its chunk index,
# not its bytes), and the storage reuse of a simulated system rebuilt for
# the next job (a cache bank's or an engine's re-Init allocates nothing, a
# whole core.System's Rebuild under 5% of a new build's bytes, and its
# Rebuild plus Run within a measured byte budget), explicitly, so an
# allocation regression or per-line state that grows back fails CI with a
# focused message even when the main test run is filtered.
test-allocs:
	$(GO) test -count 1 -run 'AllocationFree|BytesPerLine|RetainedHeap|RebuildBytes' \
		./internal/sim ./internal/cache ./internal/coherence ./internal/core ./internal/decay \
		./internal/cpu ./internal/workload ./internal/stats ./internal/trace ./internal/experiment

# test-faults runs the whole fault-tolerance surface under the race
# detector: fault injection, panic containment, retry/backoff, context
# cancellation, and the SIGKILL crash-resume and SIGINT shutdown
# integration tests over -cache.  Recovery paths are exercised, never
# trusted.
test-faults:
	$(GO) test -race -count 1 ./internal/faultinject
	$(GO) test -race -count 1 \
		-run 'Fault|Panic|Retry|Sigint|Resume|Context|Backoff|Transient|TraceBenchmark|TraceFile|FailsBeforeSimulating' \
		./internal/experiment ./internal/trace ./internal/scenario ./cmd/leaksweep

# test-service runs the sweep-service surface under the race detector: the
# result-cache store, the HTTP daemon end-to-end (submit, stream, report,
# warm-cache zero-simulation proof, shared cell outputs read by concurrent
# report clients, each report variant rendered once per output, memoised
# expansions shared by concurrent submissions of one body, repeats finished
# at submit past a full queue, concurrent clients) and leakserved's flag
# validation, opt-in /debug/pprof and shutdown under an open event stream.
test-service:
	$(GO) test -race -count 1 ./internal/resultcache ./internal/service ./cmd/leakserved

# race runs the full suite under the race detector.  The timing model is
# single-goroutine by design, but trace readers, shard merges and the
# example/figure drivers do fan out; this keeps them honest.
race:
	$(GO) test -race ./...

# cover measures atomic-mode statement coverage across the whole module and
# fails when the total drops below COVER_FLOOR percent, so a PR cannot grow
# untested surface silently.
cover:
	@mkdir -p .bench
	$(GO) test -count 1 -covermode=atomic -coverprofile=.bench/cover.out ./...
	@total=$$($(GO) tool cover -func=.bench/cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < floor) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# fuzz-smoke runs the parser fuzzers for a short fixed budget: corrupt,
# truncated or hostile trace files and scenario files must produce clean
# errors, never panics.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzDinImport -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzScenario -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzCacheRecord -fuzztime $(FUZZTIME) ./internal/resultcache
	$(GO) test -run '^$$' -fuzz FuzzServeScenario -fuzztime $(FUZZTIME) ./internal/service

# bench-smoke proves the benchmark harness still runs end to end: one
# iteration of the scheduler (placing events at marks included:
# BenchmarkScheduleAtMark), geometric-sampler (BenchmarkGeometric),
# cache-table, stream-ingest, trace decode and encode, parallel trace
# recording (BenchmarkCapture), warm service-resubmission, warm
# service-submit (a repeated body done at submit) and warm service-report
# microbenchmarks and one reduced-scale simulation per technique.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim ./internal/cache ./internal/workload ./internal/trace ./internal/service
	CMPLEAK_BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' \
		-bench 'BenchmarkRun(Baseline|Protocol|Decay|SelectiveDecay)$$' -benchtime 1x .

# bench-test vets and tests the benchmark driver.  bench/ is a Go module
# of its own, so the root `go test ./...` never builds it; this catches an
# API change that breaks leakbench.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench runs the full figure-regeneration benchmarks at the default scale.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# bench-sweep compares serial vs parallel sweep wall-clock on the
# reduced-scale matrix (one worker vs GOMAXPROCS workers, same jobs): the
# jobs/sec metric is the in-process pool's speedup on this box.  To compare
# two commits end to end, use `bash bench/run.sh compare`.
bench-sweep:
	CMPLEAK_BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' \
		-bench 'BenchmarkSweep(Serial|Parallel)$$' -count 3 ./internal/experiment

# loc prints the number of non-test Go lines outside bench/, the code-size
# figure a simplification reports.  It is a measurement, not a gate, so ci
# does not run it.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
