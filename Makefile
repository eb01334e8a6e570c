# Development targets. `make check` is the gate a change must pass:
# vet + build + full test suite + the determinism/invariant lint suite
# + race-enabled library tests + a one-iteration benchmark smoke to
# catch bit-rot in the bench harness + the batch-engine and fleet-kernel
# speedup gates.

GO ?= go

.PHONY: all check vet build test lint lint-baseline fuzz-smoke race bench-smoke bench bench-batch bench-multi bench-kernel-json bench-batch-json bench-multi-json bench-obs-json bench-stats-json bench-stats bench-trace-json bench-span-json benchtraj bench-check trace-verify results-verify clean

all: check

check: vet build test lint race bench-smoke bench-batch bench-multi bench-stats trace-verify benchtraj bench-check

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
# CDF inversion, batched Bernoulli draws vs their per-draw definition,
# the quantile table's gaps vs inverse-CDF sampling, policy
# serialization round-trips, the belief filter's live-span update vs
# the dense walk, the O(1) recharge closed form vs the sequential loop,
# and the .evtrace decoders on arbitrary bytes. Seed corpora live in
# testdata/fuzz or in the targets' f.Add calls; CI runs this same budget
# per target.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSampleBinomial -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzSampleBernoulliBatch -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzQuantileTableGap -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzVectorJSONRoundTrip -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzClusteringPolicyRoundTrip -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzBeliefStepMatchesDense -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRechargeN -fuzztime $(FUZZTIME) ./internal/energy
	$(GO) test -run '^$$' -fuzz FuzzTraceDecode -fuzztime $(FUZZTIME) ./internal/trace

# -short skips the long single-threaded solver sweeps (they exercise no
# concurrency); the kernel equivalence tests always run. The raised
# timeout absorbs the race detector's slowdown on small CI machines.
race:
	$(GO) test -race -short -timeout 1200s ./internal/...

# One iteration of each throughput benchmark (the fig3a batch cells
# included) and of the solver microbenchmarks: verifies the bench code
# still compiles and runs, without paying for a real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'SlotsPerOp|Fig3Cells|ObsOverhead|StatsOverhead|TraceOverhead|SpanOverhead' -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/core

# Batch-engine smoke: run the gated BENCH_batch emitter — the >=5x
# speedup gate (batch engine vs B sequential kernel runs at B=10^4)
# plus the zero steady-state loop-allocation check — writing the record
# into batch-bench-artifact/ (the CI artifact upload) rather than over
# the committed quiet-machine BENCH_batch.json, so `make check` stays a
# no-op on tracked files. The gate compares the median of interleaved
# rounds against the target minus the measured noise floor, which
# absorbs shared-runner drift.
bench-batch:
	mkdir -p batch-bench-artifact
	BENCH_BATCH_JSON=batch-bench-artifact/BENCH_batch.json $(GO) test -run TestEmitBenchBatchJSON -count=1 -timeout 900s .

# Fleet-kernel smoke: the gated BENCH_multi emitter — the >=3x speedup
# gate (compiled fleet kernel vs the reference loop on the fig6-shaped
# N=8 round-robin workload) plus the zero steady-state loop-allocation
# check — writing into multi-bench-artifact/ (the CI artifact upload)
# for the same reasons as bench-batch.
bench-multi:
	mkdir -p multi-bench-artifact
	BENCH_MULTI_JSON=multi-bench-artifact/BENCH_multi.json $(GO) test -run TestEmitBenchMultiJSON -count=1 -timeout 900s .

# Streaming-statistics probe gate: the <=2% slot-loop overhead budget
# of DESIGN.md §16, measured with the interleaved-rounds methodology
# and written into stats-bench-artifact/ (the CI artifact upload)
# rather than over the committed quiet-machine BENCH_stats.json, so
# `make check` stays a no-op on tracked files.
bench-stats:
	mkdir -p stats-bench-artifact
	BENCH_STATS_JSON=stats-bench-artifact/BENCH_stats.json $(GO) test -run TestStatsOverheadWithinBudget -count=1 -timeout 900s .

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
# committed manifest records. After a change that is meant to move
# results, rerun `go run ./cmd/experiments -run all -seed 1 -out results`
# and commit what it writes.
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

# Full measurement of the kernel and reference engines.
bench:
	$(GO) test -run '^$$' -bench 'SlotsPerOp' -benchtime 5x -count 3 .

# Regenerate BENCH_kernel.json (kernel vs reference on the sparse
# configuration; see EXPERIMENTS.md).
bench-kernel-json:
	BENCH_KERNEL_JSON=BENCH_kernel.json $(GO) test -run TestEmitBenchKernelJSON -count=1 -v .

# Regenerate the committed BENCH_batch.json (batch engine vs sequential
# kernel replications; same gate as bench-batch). Needs a quiet machine.
bench-batch-json:
	BENCH_BATCH_JSON=BENCH_batch.json $(GO) test -run TestEmitBenchBatchJSON -count=1 -timeout 900s -v .

# Regenerate the committed BENCH_multi.json (fleet kernel vs reference
# loop on the fig6-shaped workload; same gate as bench-multi). Needs a
# quiet machine.
bench-multi-json:
	BENCH_MULTI_JSON=BENCH_multi.json $(GO) test -run TestEmitBenchMultiJSON -count=1 -timeout 900s -v .

# Measure the cost of Config.Metrics on both engines, assert the ≤2%
# budget of DESIGN.md §9, and regenerate BENCH_obs.json. Needs a quiet
# machine — the assertion compares the median of ≥5 interleaved rounds
# against the budget plus the measured noise floor.
bench-obs-json:
	BENCH_OBS_JSON=BENCH_obs.json $(GO) test -run TestObsOverheadWithinBudget -count=1 -timeout 900s -v .

# Measure the streaming-statistics probe's cost (Config.Stats, budgeted
# <=2% of the reference slot loop like Metrics) and regenerate
# BENCH_stats.json. Same methodology and caveat as above.
bench-stats-json:
	BENCH_STATS_JSON=BENCH_stats.json $(GO) test -run TestStatsOverheadWithinBudget -count=1 -timeout 900s -v .

# Measure the tracing subsystem's cost (flight recorder budgeted ≤2%,
# full trace informational) and regenerate BENCH_trace.json. Same
# median-of-rounds methodology and quiet-machine caveat as above.
bench-trace-json:
	BENCH_TRACE_JSON=BENCH_trace.json $(GO) test -run TestTraceOverheadWithinBudget -count=1 -timeout 900s -v .

# Measure the phase-span tracer's cost (Config.Span + Config.Progress)
# on both engines, assert the same ≤2% budget, and regenerate
# BENCH_span.json. Same methodology and quiet-machine caveat as above.
bench-span-json:
	BENCH_SPAN_JSON=BENCH_span.json $(GO) test -run TestSpanOverheadWithinBudget -count=1 -timeout 900s -v .

clean:
	$(GO) clean ./...
