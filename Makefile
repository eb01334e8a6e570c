# Development targets. `make check` is the gate a change must pass:
# gofmt + vet + build + full test suite + the determinism/invariant lint
# suite + race-enabled library tests + a one-iteration benchmark smoke
# to catch bit-rot in the bench harness + the compiled-batch and
# fleet-kernel speedup gates.

GO ?= go
GOFMT ?= gofmt

.PHONY: all check fmt vet build test lint lint-baseline fuzz-smoke race bench-smoke bench bench-gates bench-json benchtraj bench-check trace-verify results-verify clean

all: check

check: fmt vet build test lint race bench-smoke bench-gates trace-verify benchtraj bench-check

# Formatting gate: fail when gofmt would rewrite any Go file. Files under
# testdata/ (the analyzer fixtures) are inputs kept as written, and
# hidden directories (.git, the benchmark's build cache) are not ours.
fmt:
	@files=$$($(GOFMT) -l $$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.*')); \
	if [ -n "$$files" ]; then \
		echo "gofmt would rewrite:" >&2; echo "$$files" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The determinism & invariant lint suite (DESIGN.md §10, §15): eight
# custom analyzers over the module, zero findings beyond the committed
# baseline allowed (exit 0 clean, 1 findings, 2 load error — see
# cmd/eventcap-lint). govulncheck needs network access to fetch the
# vulnerability DB, so it runs only where installed (the CI lint job
# installs a pinned version and fails on findings); the custom analyzers
# are the offline-safe hard gate.
lint:
	$(GO) run ./cmd/eventcap-lint -baseline lint-baseline.json ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipped (the CI lint job runs it)"; \
	fi

# Refresh the lint debt ledger. Only for acknowledging reviewed findings
# that cannot be fixed in the same change — document each entry's why
# field before committing.
lint-baseline:
	$(GO) run ./cmd/eventcap-lint -baseline lint-baseline.json -write-baseline ./...

# Short-budget fuzzing of the numeric contracts: binomial sampling vs
# CDF inversion, the quantile table's gaps vs inverse-CDF sampling, the
# belief filter's live-span update vs the dense walk, the PI solver's
# closed recovery tail vs the f-chain walk, its evaluations resumed
# from a shared prefix vs fresh walks, the O(1) recharge closed form vs
# the sequential loop, the compiled kernel vs the reference engine on
# generated configurations, the .evtrace decoders on arbitrary bytes,
# run-manifest decoding (ReadManifest and a Write round trip) and BENCH
# record decoding (benchtraj's loader and readers). Seed corpora live in
# testdata/fuzz or in the targets' f.Add calls; CI runs this same budget
# per target. The fuzzer minimizes each new input for up to 60 s by
# default, which can eat a JSON target's whole budget: FuzzReadManifest's
# ~1 KB records ran 8 inputs in 30 s without a 1 s cap (~15,000 in 10 s
# with it), so both JSON targets run with the cap.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSampleBinomial -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzQuantileTableGap -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzBeliefStepMatchesDense -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzClosedTailMatchesWalk -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzResumeMatchesWalk -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRechargeN -fuzztime $(FUZZTIME) ./internal/energy
	$(GO) test -run '^$$' -fuzz FuzzKernelMatchesReference -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzTraceDecode -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzReadManifest -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzBenchRecord -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./cmd/benchtraj

# -short skips only the pre-change fixture regeneration in
# internal/experiments; the kernel equivalence tests and the solver
# tests (whose belief filters share a read-only hazard table across
# clones) always run. The raised timeout absorbs the race detector's
# slowdown on small CI machines.
race:
	$(GO) test -race -short -timeout 1200s ./internal/...

# One iteration of every side of the gate table (TestBenchGates' rows,
# as BenchmarkGates), of the fig3a batch cells and of the solver
# microbenchmarks: verifies the bench code still compiles and runs,
# without paying for a real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Gates|Fig3Cells' -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/core

# The gates `make check` runs, from the one table of TestBenchGates
# (bench_gates_test.go): a kernel batch >=5x over B single kernel runs
# and the fleet kernel >=3x over the reference loop, both with the zero
# steady-state loop-allocation check. Every side runs observed (Metrics
# and the stats probe are part of every run). Each gate compares the
# median of interleaved rounds with its bound, allowing the measured
# noise floor, which absorbs shared-runner drift. The records go into bench-artifact/ (the
# CI artifact upload), not over the committed quiet-machine BENCH_*.json,
# so `make check` stays a no-op on tracked files.
bench-gates:
	mkdir -p bench-artifact
	BENCH_DIR=bench-artifact $(GO) test -run 'TestBenchGates/(batch|multi)$$' -count=1 -timeout 900s .

# End-to-end trace verification: run a traced kernel-heavy experiment
# and replay the trace against its manifest with cmd/tracetool. The
# trace-artifact/ directory doubles as the CI artifact upload, so the
# run also emits its phase spans (Chrome trace-event JSON) and leaves
# the structured run journal (runs.jsonl) beside the CSVs.
trace-verify:
	$(GO) run ./cmd/experiments -run fig3a -quick -slots 20000 -out trace-artifact -trace -spans fig3a.spans.json
	$(GO) run ./cmd/tracetool replay trace-artifact/fig3a.manifest.json
	$(GO) run ./cmd/tracetool stats -manifest trace-artifact/fig3a.manifest.json trace-artifact/fig3a.evtrace

# Regenerate the paper (cmd/experiments -run all -seed 1, the full-size
# suite, ~20 s on 2 vCPU) into a temporary directory and fail when any
# CSV differs from the committed results/ or from the csv_sha256 its
# committed manifest records, or when a regenerated manifest's metrics
# block (the sim.* counters) or stats block (the pooled QoM estimate)
# differs from the committed one. After a change that is meant to move
# results, those counters or those estimates, rerun
# `go run ./cmd/experiments -run all -seed 1 -out results` and commit
# what it writes.
results-verify:
	EVENTCAP_RESULTS_DIR=$(CURDIR)/results $(GO) test -run '^TestCommittedResultsReproduce$$' -count=1 -timeout 900s -v ./cmd/experiments

# Fold the current BENCH_*.json records into BENCH_trajectory.json
# (append-only history; a no-op when no record changed).
benchtraj:
	$(GO) run ./cmd/benchtraj

# Bench-regression gate: compare each committed BENCH_*.json figure of
# merit against the median of its trajectory history; fail when a
# speedup fell by more than the record's own noise floor plus a 10-point
# margin. Runs after benchtraj so the just-folded point (excluded as the
# record's own twin) never vouches for itself.
bench-check:
	$(GO) run ./cmd/benchtraj check

# Full measurement of the engine rows' sides: the kernel, batch and
# fleet engines against their baselines.
bench:
	$(GO) test -run '^$$' -bench 'Gates/(kernel|batch|multi)/' -benchtime 5x -count 3 .

# Measure every row of the gate table (kernel, batch, multi, span, trace,
# parallel) and write it over the committed BENCH_<row>.json records;
# then run `make benchtraj` and commit both. Needs a quiet
# machine: the records are the history `make bench-check` judges by.
bench-json:
	BENCH_DIR=. $(GO) test -run 'TestBenchGates$$' -count=1 -timeout 1800s -v .

clean:
	$(GO) clean ./...
