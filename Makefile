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
# serial route) and the warm flow cache. Override BENCH / BENCH_COUNT for
# a quicker or broader run. Performance claims are measured by the bench/
# harness (bench/ab.sh), not here.
BENCH ?= BenchmarkExp9BackplaneLoss|BenchmarkExp3SchedulerDivergence|BenchmarkExpAll|BenchmarkObsOverhead|BenchmarkExchangeScale|BenchmarkRouteScale|BenchmarkFlowCacheWarm
BENCH_COUNT ?= 5

# Packages with native fuzz targets and committed seed corpora
# (testdata/fuzz/FuzzParse for the parsers, FuzzJournalReplay for the
# WAL recovery path). FUZZTIME is per package.
FUZZ_PKGS = ./internal/al ./internal/hdl ./internal/exchange ./internal/schematic/vl ./internal/schematic/cd ./internal/journal
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
# allocations (DESIGN.md §5c), the memo cache's hit path, and the
# s-expression reader's arena: allocations per net of an in-memory
# exchange read (ReadBytes), and the cost of a short a/L parse.
allocs:
	$(GO) test -run 'Allocs' ./internal/route ./internal/sim ./internal/obs ./internal/workflow ./internal/memo ./internal/al ./internal/exchange

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
# the parsers, FuzzJournalReplay in journal).
fuzz:
	@for pkg in $(FUZZ_PKGS); do \
		echo "fuzz $$pkg"; \
		$(GO) test -run '^$$' -fuzz 'Fuzz' -fuzztime $(FUZZTIME) -parallel 1 $$pkg || exit 1; \
	done

bench:
	$(GO) test -bench '$(BENCH)' -benchmem -count $(BENCH_COUNT) -run '^$$' .
