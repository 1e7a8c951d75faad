# Tier-1 gate. `make check` is what CI (and every commit) should pass:
# build + vet + full tests, plus the race detector on every package that
# imports internal/par — the repo's entire concurrency surface
# (DESIGN.md §5a). RACE_PKGS is computed, not hand-listed, so a new
# par-importing package is race-gated automatically. RACE_EXTRA adds the
# failure-path packages: fault's injector is drawn from concurrently,
# workflow hosts the retry/fault engine, memo's cache is shared across
# fan-out workers, and journal backs the daemon's request log.

GO ?= go
RACE_PKGS = $(shell $(GO) list -f '{{.ImportPath}} {{join .Deps " "}}' ./... | grep 'cadinterop/internal/par' | cut -d' ' -f1)
RACE_EXTRA = cadinterop/internal/workflow cadinterop/internal/fault cadinterop/internal/obs cadinterop/internal/memo cadinterop/internal/journal

# The go test benchmarks run by `make bench`, all in the root package: the
# experiment sweep, the scale trajectory (interchange read, end-to-end
# serial route, schematic connectivity extraction), the warm flow cache,
# the workflow engine's cost versus block count, the cd writer, and a
# cached two-file /v1/check. Override BENCH /
# BENCH_COUNT for a quicker or broader run.
# Performance claims are measured by the bench/ harness (bench/ab.sh), not
# here.
BENCH ?= BenchmarkExp9BackplaneLoss|BenchmarkExp3SchedulerDivergence|BenchmarkExpAll|BenchmarkObsOverhead|BenchmarkExchangeScale|BenchmarkRouteScale|BenchmarkSchematicExtract|BenchmarkFlowCacheWarm|BenchmarkWorkflowScaling|BenchmarkCDWrite|BenchmarkVetCacheHit
BENCH_COUNT ?= 5

# Packages with native fuzz targets and committed seed corpora
# (testdata/fuzz/FuzzParse for the parsers, FuzzJournalReplay for the
# WAL recovery path, FuzzFrame for the integrity frame). FUZZTIME is per
# package.
FUZZ_PKGS = ./internal/al ./internal/hdl ./internal/exchange ./internal/schematic/vl ./internal/schematic/cd ./internal/journal ./internal/frame
FUZZTIME ?= 10s

# Coverage gate: aggregate statement coverage across ./internal/... and
# ./cmd/... must hold ≥ COVER_MIN, and internal/obs — the observability
# layer whose no-op paths are easy to leave untested — must hold ≥
# COVER_OBS_MIN on its own. Profiles land under the git-ignored build/
# directory so a cover run never leaves a multi-megabyte artifact in the
# repo root.
COVER_MIN ?= 70.0
COVER_OBS_MIN ?= 90.0
BUILD_DIR ?= build
COVER_OUT ?= $(BUILD_DIR)/cover.out

.PHONY: check build vet test race allocs bench fuzz cover

check: build vet test race allocs

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS) $(RACE_EXTRA)

# Allocation-regression gate: the AllocsPerRun tests (tagged !race) that pin
# the router's and the sim kernel's steady-state hot paths at ~zero
# allocations (DESIGN.md §5c), the memo cache's disabled path, a
# /v1/migrate cache hit (which parses no cd), and the s-expression reader's
# arena: allocations per net of an in-memory exchange read (ReadBytes),
# allocations of a 40 KB cd read, and the cost of a short a/L parse. One
# gate is a scaling bound: the bytes a faulted /v1/flow allocates per task
# may grow at most 1.5x from 16 to 256 blocks. Two pin what a cache hit
# pays: the allocations of a gen-100 cd.Write (the migration key), and the
# bytes a cached vet of a 0.5 MB file allocates, which must not grow with
# the file (filecheck reads it into a pooled buffer).
allocs:
	$(GO) test -run 'Allocs' ./internal/route ./internal/sim ./internal/obs ./internal/workflow ./internal/memo ./internal/serve ./internal/al ./internal/exchange ./internal/schematic/cd ./internal/filecheck

# Coverage gate (see COVER_MIN / COVER_OBS_MIN above). One merged profile
# over every package, then the same profile filtered to internal/obs —
# both totals come from `go tool cover -func`, so they are
# statement-weighted, and obs statements exercised by other packages'
# tests count toward its gate.
cover:
	@mkdir -p $(dir $(COVER_OUT))
	$(GO) test -coverprofile=$(COVER_OUT) -coverpkg=./internal/...,./cmd/... ./... > /dev/null
	@$(GO) tool cover -func=$(COVER_OUT) | tail -1 | awk '{ t = $$3 + 0; \
		printf "aggregate coverage: %.1f%% (min $(COVER_MIN)%%)\n", t; \
		if (t < $(COVER_MIN)) { print "FAIL: aggregate coverage below $(COVER_MIN)%"; exit 1 } }'
	@head -1 $(COVER_OUT) > $(COVER_OUT).obs && grep '/internal/obs/' $(COVER_OUT) >> $(COVER_OUT).obs && \
	$(GO) tool cover -func=$(COVER_OUT).obs | tail -1 | awk '{ t = $$3 + 0; \
		printf "internal/obs coverage: %.1f%% (min $(COVER_OBS_MIN)%%)\n", t; \
		if (t < $(COVER_OBS_MIN)) { print "FAIL: internal/obs coverage below $(COVER_OBS_MIN)%"; exit 1 } }' && \
	rm -f $(COVER_OUT).obs

# Fuzz smoke: every fuzz target runs FUZZTIME from its committed corpus
# without crashing (DESIGN.md §5e, §5j). Not part of `check` — the
# deterministic prefix/mutation sweeps cover the same contract there.
# -fuzz 'Fuzz' matches the single target in each package (FuzzParse in
# the parsers, FuzzJournalReplay in journal, FuzzFrame in frame).
# -fuzzminimizetime 1s caps the minimization of each new interesting
# input: at Go's 60 s default, minimizing the first one used up the whole
# FUZZTIME of the slower targets, which then ran a few dozen inputs.
fuzz:
	@for pkg in $(FUZZ_PKGS); do \
		echo "fuzz $$pkg"; \
		$(GO) test -run '^$$' -fuzz 'Fuzz' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s -parallel 1 $$pkg || exit 1; \
	done

bench:
	$(GO) test -bench '$(BENCH)' -benchmem -count $(BENCH_COUNT) -run '^$$' .
