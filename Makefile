# Verification pipeline. `make ci` is the gate: vet, build, full test
# suite, race detector repo-wide, gofmt cleanliness (any unformatted
# file fails the run), static analysis (when the pinned tools are
# installed — see lint-tools), the coverage floor, and every example
# program run to completion.

GO ?= go

# Pinned analysis tool versions; `make lint-tools` installs them with
# the module-aware `go install pkg@version` form, so they never touch
# go.mod. CI installs them; locally `make lint` degrades to a skip with
# a notice when a tool is absent (offline boxes stay green).
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

# Total statement coverage floor for `make cover`. The recorded
# baseline at the time the gate was added was 82.1%; the floor sits a
# couple of points under it to absorb counting jitter from randomized
# property tests and new low-risk code while still catching real
# regressions. Raise it when the baseline moves up.
COVER_FLOOR ?= 80.0

.PHONY: ci vet build test test-shuffle race fmtcheck fmt lint lint-tools cover \
	bce examples bench-schedule chaos fuzz cert serve-soak bench-serve \
	extsort-battery extsort-fuzz bench-extsort perfbench

ci: vet build test race fmtcheck lint cover bce examples

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Shuffled double-run: flushes test-order dependence and stale-cache
# assumptions (each test file must pass in any order, twice).
test-shuffle:
	$(GO) test -shuffle=on -count=2 ./...

race:
	$(GO) test -race ./...

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .

# Static analysis: staticcheck (bug patterns, simplifications) and
# govulncheck (known-vulnerable call paths in the stdlib/toolchain —
# this module has no third-party dependencies). A tool that is not on
# PATH is skipped with a notice instead of failing, so lint works on
# machines without network access; CI runs lint-tools first and gets
# the full gate.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (run 'make lint-tools')"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (run 'make lint-tools')"; \
	fi

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Coverage gate: run the full suite with statement coverage, print the
# per-package summary, and fail if total coverage drops below
# COVER_FLOOR percent.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	@$(GO) tool cover -func=coverage.out | tail -20
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# Bounds-check-elimination gate: the columnar kernel's inner min/max
# loop (internal/schedule/kernel.go) and the scalar 2-way merge loop
# (internal/extsort/kernel.go) must compile with zero IsInBounds
# checks — the per-element checks the BCE idioms (`hi = hi[:len(lo)]` +
# `for s := range lo`; unsigned input indices under the loop test)
# exist to remove. IsSliceInBounds checks, once per comparator or per
# merge call, are amortized and allowed. The Go build cache replays
# compiler diagnostics on cache hits, so the grep is reliable without
# cache-busting.
BCE_KERNELS = schedule extsort
bce:
	@for pkg in $(BCE_KERNELS); do \
		out=$$($(GO) build -gcflags="productsort/internal/$$pkg=-d=ssa/check_bce" ./internal/$$pkg/ 2>&1); \
		echo "$$out" | grep "internal/$$pkg/kernel\.go" || true; \
		if echo "$$out" | grep "internal/$$pkg/kernel\.go" | grep -q 'Found IsInBounds'; then \
			echo "bce: internal/$$pkg/kernel.go inner loop has per-element bounds checks"; exit 1; \
		fi; \
		echo "bce: internal/$$pkg/kernel.go inner loop is bounds-check free"; \
	done

# Run every program under examples/; a non-zero exit (an example's
# log.Fatal on a failed self-check) fails the target.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

# The timed artifacts carry a host header with the binary's VCS stamp,
# which `go run` records only under -buildvcs=true; outside a git work
# tree that flag fails the build, so it is set only inside one.
BUILDVCS ?= $(shell git rev-parse --is-inside-work-tree >/dev/null 2>&1 && echo true || echo false)
BENCH_RUN = $(GO) run -buildvcs=$(BUILDVCS) ./cmd/bench

bench-schedule:
	$(BENCH_RUN) -mode schedule

# Chaos smoke: resilient sorts under injected faults across topologies,
# plus the fault-rate x engine sweep (deterministic replay vs the
# randomized engine per q variant); fails if any deterministic run ends
# unsorted, any randomized run fails acceptance, or the sweep's top
# rate no longer collapses the deterministic engine. Writes
# BENCH_chaos.json. CHAOS_BASE offsets the fault seeds so CI matrix
# legs explore distinct chaos.
CHAOS_BASE ?= 0
chaos:
	$(GO) run ./cmd/bench -mode chaos -seeds 3 -chaosbase $(CHAOS_BASE)

# Fuzz the fault-plan scrub contract: injected key corruption must be
# detected by the checksum scrub (or provably harmless), and fault
# plans must be deterministic. Also fuzz the gray-code kernel the whole
# snake order rests on: rank/unrank round-trips and the split-position
# lemma for any radix/dimension. The columnar equivalence target proves
# RunBatchColumnar matches the scalar ExecBackend replay on arbitrary
# batches (mixed sizes, all-sentinel items, size-1). FuzzEveryEntryPoint
# is the differential harness over every public way to sort (product,
# multiway and periodic networks; both servers; a spilling stream): each
# output must equal slices.Sort and the unpruned replay. Its servers run
# goroutines, so coverage is not deterministic and new inputs would
# each be minimized for up to a minute; -fuzzminimizetime keeps the
# budget on fuzzing. FuzzGraphNew holds graph.New's flat adjacency and
# linear-time checks to the map-based reference it replaced, on edge
# lists with duplicates, loops, out-of-range ends and disconnected
# parts. Bounded so it fits in CI.
fuzz:
	$(GO) test . -run=^$$ -fuzz=FuzzEveryEntryPoint -fuzztime=20s -fuzzminimizetime=2s
	$(GO) test ./internal/faults/ -run=^$$ -fuzz=FuzzScrubDetectsCorruption -fuzztime=20s
	$(GO) test ./internal/faults/ -run=^$$ -fuzz=FuzzFaultPlanDeterminism -fuzztime=10s
	$(GO) test ./internal/gray/ -run=^$$ -fuzz=FuzzRankUnrank -fuzztime=10s
	$(GO) test ./internal/gray/ -run=^$$ -fuzz=FuzzSnakeRankUnrank -fuzztime=10s
	$(GO) test ./internal/gray/ -run=^$$ -fuzz=FuzzSplitPosLemma -fuzztime=10s
	$(GO) test ./internal/gray/ -run=^$$ -fuzz=FuzzMixedRadixRoundTrip -fuzztime=10s
	$(GO) test ./internal/schedule/ -run=^$$ -fuzz=FuzzColumnarEquivalence -fuzztime=10s
	$(GO) test ./internal/extsort/ -run=^$$ -fuzz=FuzzSortStreamEquivalence -fuzztime=15s
	$(GO) test ./internal/graph/ -run=^$$ -fuzz=FuzzGraphNew -fuzztime=10s

# Certification gate: machine-check (0-1 principle, bitsliced) that the
# executed comparator stream of every built-in family/engine pair sorts
# and drops only comparators that never swap — exhaustively up to 16
# keys in CI, sampled with coverage lint above. Fails on any
# counterexample. It also writes staged certificates (every stage of
# the recursion over its sorted 0-1 tuples) for K2^10 and every serving
# network the staged pass covers. Writes BENCH_cert.json. Then the
# certifier's own checks: every mutant (broken-prune included: intact
# ops, one live comparator missing from the executed stream) must be
# rejected; every broken-stage mutant (the same, inside one merge) must
# be rejected by that merge's stage certificate; and every
# exhaustive-envelope program may drop only comparators in its unpruned
# exhaustive dead set, per an independent scalar oracle, with the
# staged certificate's live set equal to that oracle's.
cert:
	$(BENCH_RUN) -mode cert -certmax 16
	$(GO) test -count=1 -run '^(TestMutationHarness|TestEmittedMutationHarness|TestBrokenStageMutants|TestDroppedComparatorsAreExhaustivelyDead)$$' ./internal/cert/

# Serving soak: the batching sort server hammered from many goroutines
# under the race detector for a few seconds — deadlines, cancellations,
# shedding and graceful drain all exercised concurrently. Then the
# tests that pin batching, cancellation and drain on a held worker
# (a flush parked at the flushGate hook) run twenty times each, so a
# timing-dependent version of any of them fails here.
SERVE_GATE_TESTS = TestServerSharedBatch|TestServerBatchesWhileWorkersBusy|TestServerQueueFullSheds|TestServerDeadlineWhileEnqueued|TestServerMidFlushCancel|TestServerEnqueuedCancelSparesBatchmates|TestServerGracefulDrain|TestServerCompileErrorReply|TestServerFlushPanicReply|TestServerCloseDuringBlockedFlush
serve-soak:
	SOAK_MS=3000 $(GO) test -race -run TestServerSoak -count=1 ./internal/serve/
	$(GO) test -race -count=20 -run '^($(SERVE_GATE_TESTS))$$' ./internal/serve/

# Serving saturation curve: open-loop offered load against the server;
# prints the throughput/latency table and writes BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/bench -mode serve

# Streaming external sort battery, race-enabled: the extsort package's
# oracle/property/cancel tests at GOMAXPROCS 1, 2 and 4 (one merge pool
# worker, then several merging key ranges side by side), the serve
# large-request lane, and the root-level acceptance tests (1e6-key
# oracle under -race, chaos-leg run formation through SortResilient,
# spill-path oracle, extreme keys through the spilling server lane).
# Then the failure and cancellation tests run twenty times each, so a
# timing-dependent hang in the merge pool's chunk window or in run
# formation's drain fails here instead of once in a hundred runs.
EXTSORT_GATE_TESTS = TestChunkMergeWorkerFails|TestFinalMergeSpillReadFails|TestIntermediatePassSpillReadFails|TestIntermediatePassSpillWriteFails|TestIntermediatePassCancelled|TestSortStreamSourceOrSorterFails|TestSortStreamSpillCreateFails|TestRunCheckCatchesBrokenSorter|TestSortStreamCancelMidStream|TestSortStreamCancelBeforeStart|TestSortStreamCancelInFirstWrite|TestSortStreamSinkFails
extsort-battery:
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/extsort/
	$(GO) test -race -count=20 -run '^($(EXTSORT_GATE_TESTS))$$' ./internal/extsort/
	$(GO) test -race -count=1 -run 'SubmitStream' ./internal/serve/
	$(GO) test -race -count=1 \
		-run 'TestSortStream|TestServerSubmitStreamRoot' .

# Bounded streaming-sort fuzz: SortStream vs slices.Sort over
# fuzz-chosen lengths, run sorter ceilings (so run sizes), fan-ins 2 to
# 32 (optionally with the spill budget each derives from) and pre-merge
# batch sizes. The pinned short budget keeps it a smoke pass in CI;
# crank -fuzztime locally for a real hunt.
EXTSORT_FUZZTIME ?= 20s
extsort-fuzz:
	$(GO) test ./internal/extsort/ -run=^$$ \
		-fuzz=FuzzSortStreamEquivalence -fuzztime=$(EXTSORT_FUZZTIME)

# Streaming tier vs slices.Sort: five repeats at the second-largest size
# (median and quartiles, run first), the size sweep and a run batch sweep
# at the largest; writes BENCH_extsort.json with its host.
bench-extsort:
	$(BENCH_RUN) -mode extsort

# The repository benchmark (BENCHMARK.json): build perfbench/ from this
# checkout and run one workload. The build cache, spill files and traces
# stay under the ignored .bench_build/.
PERFBENCH_WORKLOAD ?= stream-1e7
PERFBENCH_SEED ?= 1
PERFBENCH_SECONDS ?= 30
PERFBENCH_TRACE ?= 0
perfbench:
	python3 perfbench/run.py --workload $(PERFBENCH_WORKLOAD) --seed $(PERFBENCH_SEED) \
		--seconds $(PERFBENCH_SECONDS) --trace $(PERFBENCH_TRACE)
