GO ?= go
GOFMT ?= gofmt

# Output file for bench-json; override to capture a non-baseline report,
# e.g. `make bench-json BENCH_OUT=BENCH_pr2.json`.
BENCH_OUT ?= BENCH_baseline.json
# Benchtime for the quick bench-compare pass inside `make check`.
BENCHTIME ?= 100x
# Number of independent benchmark runs bench-gate feeds the stability
# gate; must be >= 3.
GATE_RUNS ?= 3
# The tracked benchmarks behind bench-json, bench-compare and bench-gate.
BENCH_RE = BenchmarkKernel|BenchmarkMachineTick|BenchmarkSteadyState|BenchmarkTrivialFill

.PHONY: all check fmt build vet test test-short race race-equiv obs-check service-check fabric-check lab-check bench bench-json bench-compare bench-check bench-gate fuzz fuzz-short chaos experiments experiments-full cover clean

all: check

# check fails fast on formatting and the determinism contracts
# (race-equiv) before the full -race sweep, then runs the robustness
# gates (short fuzz pass over the decoders, randomized chaos resume grid)
# and ends with a warn-only benchmark comparison.
check: fmt build vet test race-equiv obs-check service-check fabric-check lab-check race fuzz-short chaos bench-check

# fmt fails when gofmt would change any Go file, listing the files.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# check-names guards a named test list: `go test -run` passes when
# nothing matches, so each name is first checked against `go test -list`
# and a renamed test fails its gate instead of silently dropping out of
# it. Usage: $(call check-names,<target>,<names joined by |>,<packages>).
check-names = tests=$$($(GO) test -list . $(3) | grep '^Test') || exit 1; \
	for name in $$(echo '$(2)' | tr '|' ' '); do \
		echo "$$tests" | grep -q -- "$$name" || { echo "$(1): no test in $(3) matches $$name"; exit 1; }; \
	done

# race-equiv runs the determinism contracts under the race detector:
# the pooled Runner's buffer reuse, the run loop's batching, packed
# memory, the done hint and snapshot/resume's state capture are where
# state could leak between runs or ticks, and so are the processors
# that restarts, pooled runs and restores reset in place (the machine's
# lifecycle counts and the robust executor's).
# RACE_EQUIV_ROOT runs on the root package, RACE_EQUIV_PRAM on
# internal/pram, RACE_EQUIV_CORE on internal/core.
RACE_EQUIV_ROOT = TestPooledRun|TestDoneHint|TestResumeEquivalence|TestPackedEquivalence|TestPackedResumeEquivalence|TestTickBatchEquivalence
RACE_EQUIV_PRAM = TestRunnerLoopEquivalence|TestDoneHintExactAcrossBatches|TestMachineMatchesReference|TestProcessorLifecycle
RACE_EQUIV_CORE = TestExecutorWorkPinned

race-equiv:
	@$(call check-names,race-equiv,$(RACE_EQUIV_ROOT),.)
	@$(call check-names,race-equiv,$(RACE_EQUIV_PRAM),./internal/pram)
	@$(call check-names,race-equiv,$(RACE_EQUIV_CORE),./internal/core)
	$(GO) test -race -run '$(RACE_EQUIV_ROOT)' .
	$(GO) test -race -run '$(RACE_EQUIV_PRAM)' ./internal/pram
	$(GO) test -race -run '$(RACE_EQUIV_CORE)' ./internal/core

# obs-check runs the observability layer's concurrency-sensitive tests
# under the race detector — the metrics registry, the shared event sink,
# and the sweep-progress hooks all take concurrent writers — plus go vet
# on the packages the layer touches.
OBS_CHECK = TestJSONL|TestProcTracker|TestEnableObs|TestObsCounts|TestWatchdog

obs-check:
	$(GO) test -race ./internal/obs/
	@$(call check-names,obs-check,$(OBS_CHECK),./internal/pram/ ./internal/bench/)
	$(GO) test -race -run '$(OBS_CHECK)' ./internal/pram/ ./internal/bench/
	$(GO) vet ./internal/obs/ ./internal/pram/ ./internal/bench/ ./cmd/writeall/ ./cmd/experiments/

# service-check runs the engine/jobs/daemon stack under the race
# detector: the job store's worker pool, SSE hub, and crash-recovery
# paths are all concurrency-heavy, and the pramd chaos drill
# (kill-restart-resume over HTTP) lives in cmd/pramd.
service-check:
	$(GO) test -race ./internal/engine/ ./internal/jobs/ ./cmd/pramd/
	$(GO) vet ./internal/engine/ ./internal/jobs/ ./cmd/pramd/

# fabric-check runs the distributed sweep fabric under the race
# detector with a hard wall-clock cap: the coordinator's lease table,
# the workers' heartbeat pumps, and the chaos kill/restart drill
# (TestChaosSweepKillRestart) are all concurrency-heavy, and a hung
# lease must fail the build rather than wedge it.
fabric-check:
	$(GO) test -race -timeout 10m ./internal/fabric/ ./cmd/pramw/
	$(GO) vet ./internal/fabric/ ./cmd/pramw/

# lab-check runs the adversary strategy lab and the adversary package
# under the race detector, then one short seeded tournament smoke: the pinned σ-frontier head
# for X (TestFrontierPinnedOrdering) and the search-beats-hand-grid
# acceptance run must reproduce exactly — a change anywhere in the
# machine, the adversaries, or the lab that reorders them is a
# behavior change and must be pinned deliberately.
LAB_CHECK = TestFrontierPinnedOrdering|TestSearchBeatsHandWrittenGrid

lab-check:
	$(GO) test -race ./internal/advlab/ ./internal/adversary/
	$(GO) vet ./internal/advlab/ ./internal/adversary/
	@$(call check-names,lab-check,$(LAB_CHECK),./internal/advlab/)
	$(GO) test -count=1 -run '$(LAB_CHECK)' ./internal/advlab/

bench:
	$(GO) test -bench . -benchmem ./...

# bench-json regenerates $(BENCH_OUT) (default BENCH_baseline.json): the
# kernel and tick throughput benchmarks in machine-readable form (see
# cmd/benchjson). The report replaces $(BENCH_OUT) only once benchjson
# has written it whole.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem . ./internal/pram | $(GO) run ./cmd/benchjson > bench_json.tmp || { rm -f bench_json.tmp; exit 1; }
	@mv bench_json.tmp $(BENCH_OUT)

# bench-compare reruns the tracked benchmarks and diffs them against the
# committed baseline, failing on >25% ns/op or allocs/op regressions.
bench-compare:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchtime $(BENCHTIME) -benchmem . ./internal/pram | $(GO) run ./cmd/benchjson > bench_new.json
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json bench_new.json

# bench-gate is how a BENCH_*.json snapshot gets minted: a fresh build,
# then $(GATE_RUNS) independent full runs of the tracked benchmarks, each
# converted to JSON, fed to benchjson -gate, which rejects >10% cross-run
# spread on any tracked metric. Only a stable machine produces a
# baseline: the accepted report (the per-metric median) is written to a
# temporary file and renamed to $(BENCH_OUT) only when the gate accepts,
# so a rejected gate leaves $(BENCH_OUT) as it was.
bench-gate: build
	@rm -f bench_gate_*.json bench_gate.tmp
	@for i in $$(seq 1 $(GATE_RUNS)); do \
		echo "bench-gate: run $$i of $(GATE_RUNS)"; \
		$(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem . ./internal/pram | $(GO) run ./cmd/benchjson > bench_gate_$$i.json || exit 1; \
	done
	@$(GO) run ./cmd/benchjson -gate bench_gate_*.json > bench_gate.tmp || { rm -f bench_gate.tmp; exit 1; }
	@mv bench_gate.tmp $(BENCH_OUT)
	@rm -f bench_gate_*.json
	@echo "bench-gate: accepted -> $(BENCH_OUT)"

# bench-check is bench-compare in warn-only form for `make check`: a short
# benchtime keeps it fast, and the leading '-' keeps noisy regressions
# from failing the whole check (run `make bench-compare` for the strict
# version at default benchtime).
bench-check:
	-$(MAKE) bench-compare BENCHTIME=$(BENCHTIME)

# FUZZ lists every fuzz target in the tree as <name>:<package>; fuzz
# runs each for 30s and fuzz-short for 5s.
FUZZ = FuzzWriteAllUnderRandomPatterns:./internal/writeall/ \
	FuzzScheduledPatterns:./internal/writeall/ \
	FuzzReadSnapshot:./internal/pram/ \
	FuzzMachineVsReference:./internal/pram/ \
	FuzzMemoryOps:./internal/pram/ \
	FuzzJSONLMatchesEncodingJSON:./internal/pram/ \
	FuzzReadPattern:./internal/adversary/ \
	FuzzParseStrategy:./internal/advlab/ \
	FuzzJournalReplay:./internal/bench/ \
	FuzzDecodeJob:./internal/jobs/ \
	FuzzSubmitSpec:./cmd/pramd/ \
	FuzzFabricBody:./internal/fabric/ \
	FuzzCountingMatchesStandardSource:./internal/rng/

# check-fuzz-names guards FUZZ the way check-names guards a test list: a
# `func Fuzz*` anywhere in the tree that FUZZ does not name fails the
# fuzz target, so a new target cannot be left running only its seeds.
check-fuzz-names = for name in $$(grep -rhoE '^func Fuzz[A-Za-z0-9_]*' --include='*_test.go' \
		--exclude-dir=.git --exclude-dir=.bench_build . | cut -c6-); do \
		case ' $(FUZZ) ' in *" $$name:"*) ;; *) echo "fuzz: $$name is missing from FUZZ"; exit 1;; esac; \
	done

# fuzz-each runs every FUZZ target for $(1), stopping at the first
# failure.
fuzz-each = for t in $(FUZZ); do \
		echo "$(GO) test -fuzz $${t%%:*} -fuzztime $(1) $${t\#*:}"; \
		$(GO) test -fuzz $${t%%:*} -fuzztime $(1) $${t\#*:} || exit 1; \
	done

fuzz:
	@$(check-fuzz-names)
	@$(call fuzz-each,30s)

# fuzz-short runs every FUZZ target for 5s instead of 30s: the
# harness-input decoders (snapshot binary format, failure-pattern JSON,
# lab strategy JSON, fabric ledger replay, job status files, pramd's
# submit body, the fabric's request bodies) and the differential checks
# (the random source against math/rand, the machine against the
# reference stepper, shared memory against a plain []Word model, the
# event sink's hand encoder against encoding/json, Write-All under random
# and scheduled failure patterns) get a brief randomized shake beyond
# their committed corpora; cheap enough to live inside `make check`.
fuzz-short:
	@$(check-fuzz-names)
	@$(call fuzz-each,5s)

# chaos runs the randomized crash/resume grid: checkpointed runs under
# injected snapshot-I/O faults (torn writes, bit corruption, failing
# fsync/rename) must still reproduce the fault-free metrics exactly.
# The seed is printed; replay a failure with PRAM_CHAOS_SEED=<seed>.
chaos:
	PRAM_CHAOS=1 $(GO) test -run TestChaosResumeEquivalence -count=1 -v .

experiments:
	$(GO) run ./cmd/experiments

experiments-full:
	$(GO) run ./cmd/experiments -full

cover:
	$(GO) test -coverprofile=cover.out ./internal/... .
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt bench_new.json bench_gate_*.json bench_gate.tmp bench_json.tmp
	rm -rf pramd.state fabric.state
