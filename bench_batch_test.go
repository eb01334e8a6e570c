package eventcap_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/sim"
)

// batchBenchConfig is the batch-engine benchmark workload: the same
// sparse-activation configuration as kernelBenchConfig, run as B
// independent replications of a short horizon. Short per-replication
// horizons are the regime the batch engine targets (replication studies
// and confidence-interval sweeps), and the regime where per-run setup —
// policy compilation, recharge fast-forward tables — dominates a
// sequential loop of sim.Run calls.
func batchBenchConfig(b testing.TB, engine sim.Engine, slots int64, batch int, seed uint64) sim.Config {
	b.Helper()
	cfg := kernelBenchConfig(b, engine, slots, seed)
	cfg.Batch = batch
	return cfg
}

const (
	batchBenchReps  = 10_000 // B: replications per op (the ISSUE floor for the gate)
	batchBenchSlots = 10_000 // T: slots per replication
	batchMinSpeedup = 5.0    // gate: batch engine vs B sequential kernel runs
)

// benchBatch times one aggregate op — B replications of T slots — on
// the given engine. EngineBatch exercises the batch engine proper;
// EngineKernel forces the sequential fallback (B independent kernel
// runs at consecutive seeds), which is exactly the baseline the batch
// engine replaces, producing equal-in-law aggregates on the same seeds.
func benchBatch(b *testing.B, engine sim.Engine) {
	cfg := batchBenchConfig(b, engine, batchBenchSlots, batchBenchReps, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Events == 0 {
			b.Fatal("benchmark run saw no events")
		}
	}
}

// BenchmarkBatchSlotsPerOp measures the batch engine on B=10^4
// replications of T=10^4 slots (slots/op is B*T = 1e8).
func BenchmarkBatchSlotsPerOp(b *testing.B) { benchBatch(b, sim.EngineBatch) }

// BenchmarkBatchSequentialSlotsPerOp is the sequential baseline: the
// same B replications as B independent kernel runs.
func BenchmarkBatchSequentialSlotsPerOp(b *testing.B) { benchBatch(b, sim.EngineKernel) }

// BenchmarkBatchFig3Cells times one fig3a cell per recharge process the
// way the fi-batch regeneration runs it: greedy-FI on Weibull(40,3) at
// e = 0.5, K = 100, Batch 4 x T = 10^6 (slots/op is 4e6), with Metrics
// and Stats on as the experiment drivers set them, on one worker.
func BenchmarkBatchFig3Cells(b *testing.B) {
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	fi, err := core.GreedyFI(d, 0.5, p)
	if err != nil {
		b.Fatal(err)
	}
	cells := []struct {
		name string
		mk   func() (energy.Recharge, error)
	}{
		{"bernoulli", func() (energy.Recharge, error) { return energy.NewBernoulli(0.5, 1) }},
		{"periodic", func() (energy.Recharge, error) { return energy.NewPeriodic(5, 10) }},
		{"constant", func() (energy.Recharge, error) { return energy.NewConstant(0.5) }},
	}
	for _, c := range cells {
		if _, err := c.mk(); err != nil {
			b.Fatal(err)
		}
		mk := c.mk
		cfg := sim.Config{
			Dist:        d,
			Params:      p,
			NewRecharge: func() energy.Recharge { r, _ := mk(); return r },
			NewPolicy:   func(int) sim.Policy { return &sim.VectorFI{Vector: fi.Policy} },
			BatteryCap:  100,
			Slots:       1_000_000,
			Batch:       4,
			Workers:     1,
			Metrics:     true,
			Stats:       true,
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Events == 0 {
					b.Fatal("benchmark run saw no events")
				}
			}
		})
	}
}

// speedupRound is one interleaved sequential/batch measurement pair.
type speedupRound struct {
	SequentialNsPerOp int64   `json:"sequential_ns_per_op"`
	BatchNsPerOp      int64   `json:"batch_ns_per_op"`
	Speedup           float64 `json:"speedup"`
}

// speedupMeasurement mirrors overheadMeasurement for a speedup claim:
// the per-round pairing cancels machine drift, the median resists a
// single disturbed round, and the noise floor (spread of the baseline
// side as a percentage of its median) bounds how much of the claim
// could be wobble. A gate on "speedup >= S" therefore allows the
// median to undershoot by the noise floor.
type speedupMeasurement struct {
	Rounds                  []speedupRound `json:"rounds"`
	MedianSequentialNsPerOp int64          `json:"median_sequential_ns_per_op"`
	MedianBatchNsPerOp      int64          `json:"median_batch_ns_per_op"`
	MedianSpeedup           float64        `json:"median_speedup"`
	NoiseFloorPct           float64        `json:"noise_floor_pct"`
}

// summarizeSpeedupRounds computes the measurement record from raw
// rounds (split out so the math is unit-testable without benchmarks).
func summarizeSpeedupRounds(rounds []speedupRound) speedupMeasurement {
	m := speedupMeasurement{Rounds: rounds}
	seqs := make([]int64, len(rounds))
	batches := make([]int64, len(rounds))
	sps := make([]float64, len(rounds))
	minSeq, maxSeq := rounds[0].SequentialNsPerOp, rounds[0].SequentialNsPerOp
	for i, r := range rounds {
		seqs[i], batches[i], sps[i] = r.SequentialNsPerOp, r.BatchNsPerOp, r.Speedup
		if r.SequentialNsPerOp < minSeq {
			minSeq = r.SequentialNsPerOp
		}
		if r.SequentialNsPerOp > maxSeq {
			maxSeq = r.SequentialNsPerOp
		}
	}
	m.MedianSequentialNsPerOp = medianInt64(seqs)
	m.MedianBatchNsPerOp = medianInt64(batches)
	m.MedianSpeedup = medianFloat(sps)
	m.NoiseFloorPct = 100 * float64(maxSeq-minSeq) / float64(m.MedianSequentialNsPerOp)
	return m
}

// measureSpeedup runs the sequential/batch pair for the given number of
// interleaved rounds (>=3 enforced) and summarizes them.
func measureSpeedup(rounds int, sequential, batch func(b *testing.B)) speedupMeasurement {
	if rounds < 3 {
		rounds = 3
	}
	rs := make([]speedupRound, rounds)
	for i := range rs {
		seqRes := testing.Benchmark(sequential)
		batchRes := testing.Benchmark(batch)
		rs[i] = speedupRound{
			SequentialNsPerOp: seqRes.NsPerOp(),
			BatchNsPerOp:      batchRes.NsPerOp(),
			Speedup:           float64(seqRes.NsPerOp()) / float64(batchRes.NsPerOp()),
		}
	}
	return summarizeSpeedupRounds(rs)
}

// meetsSpeedup is the gate: the median speedup may undershoot the
// target only by the measured noise floor.
func (m speedupMeasurement) meetsSpeedup(target float64) bool {
	return m.MedianSpeedup >= target*(1-m.NoiseFloorPct/100)
}

func TestSummarizeSpeedupRoundsMath(t *testing.T) {
	rounds := []speedupRound{
		{SequentialNsPerOp: 1000, BatchNsPerOp: 125, Speedup: 8},
		{SequentialNsPerOp: 1100, BatchNsPerOp: 130, Speedup: 8.4615}, // disturbed round
		{SequentialNsPerOp: 1000, BatchNsPerOp: 140, Speedup: 7.1429},
	}
	m := summarizeSpeedupRounds(rounds)
	if m.MedianSequentialNsPerOp != 1000 || m.MedianBatchNsPerOp != 130 {
		t.Errorf("medians seq=%d batch=%d, want 1000/130", m.MedianSequentialNsPerOp, m.MedianBatchNsPerOp)
	}
	if m.MedianSpeedup != 8 {
		t.Errorf("median speedup %.3f, want 8", m.MedianSpeedup)
	}
	if want := 100 * float64(100) / 1000; m.NoiseFloorPct != want {
		t.Errorf("noise floor %.3f, want %.3f", m.NoiseFloorPct, want)
	}
	if !m.meetsSpeedup(5) {
		t.Error("8x median must pass a 5x gate")
	}
	if (speedupMeasurement{MedianSpeedup: 4, NoiseFloorPct: 1}).meetsSpeedup(5) {
		t.Error("4x median with a 1%% noise floor must fail a 5x gate")
	}
}

// TestBatchSteadyStateAllocs checks the batch engine's two loops
// allocate nothing in steady state. Growing the horizon T at fixed B
// must not change the allocation count (the slot loop is clean), and
// growing B at a fixed chunk count must not change it either (all
// per-replication state — RNG streams, battery, recharge — lives in
// the reusable per-chunk worker; the only B-sized cost is the one
// stats slice, a single allocation at any B). Two workers split either
// B evenly, so both B values below run in exactly two chunks.
func TestBatchSteadyStateAllocs(t *testing.T) {
	run := func(slots int64, batch int) float64 {
		return steadyAllocs(func() {
			cfg := batchBenchConfig(t, sim.EngineBatch, slots, batch, 1)
			cfg.Workers = 2
			if _, err := sim.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Config construction allocates identically on both sides of each
	// comparison, so differences isolate the engine.
	shortT, longT := run(100, 256), run(50_000, 256)
	if longT > shortT {
		t.Errorf("batch slot loop allocates: %v allocs at T=100, %v at T=50k", shortT, longT)
	}
	smallB, largeB := run(2_000, 128), run(2_000, 2048)
	if largeB > smallB {
		t.Errorf("batch replication loop allocates: %v allocs at B=128, %v at B=2048", smallB, largeB)
	}
}

// TestEmitBenchBatchJSON regenerates BENCH_batch.json and enforces the
// batch engine's performance gate: on the sparse-activation workload at
// B=10^4 replications, aggregate throughput must be at least 5x the
// same replications run sequentially through the single-run kernel
// (the forced fallback path), measured with the interleaved-rounds
// median/noise-floor protocol of bench_rounds_test.go. Gated behind an
// env var so normal test runs stay fast:
//
//	BENCH_BATCH_JSON=BENCH_batch.json go test -run TestEmitBenchBatchJSON .
func TestEmitBenchBatchJSON(t *testing.T) {
	path := os.Getenv("BENCH_BATCH_JSON")
	if path == "" {
		t.Skip("set BENCH_BATCH_JSON=<path> to emit the benchmark record")
	}
	m := measureSpeedup(3,
		func(b *testing.B) { benchBatch(b, sim.EngineKernel) },
		func(b *testing.B) { benchBatch(b, sim.EngineBatch) },
	)
	if !m.meetsSpeedup(batchMinSpeedup) {
		t.Errorf("batch speedup gate failed: median %.2fx (noise floor %.1f%%), want >= %.0fx",
			m.MedianSpeedup, m.NoiseFloorPct, batchMinSpeedup)
	}

	loopAllocs := steadyAllocs(func() {
		sim.Run(batchBenchConfig(t, sim.EngineBatch, 50_000, 256, 1))
	}) - steadyAllocs(func() {
		sim.Run(batchBenchConfig(t, sim.EngineBatch, 100, 256, 1))
	})
	if loopAllocs > 0 {
		t.Errorf("batch steady-state loop allocs = %v, want 0", loopAllocs)
	}

	const totalSlots = int64(batchBenchReps) * batchBenchSlots
	rec := struct {
		Benchmark             string             `json:"benchmark"`
		Config                string             `json:"config"`
		Batch                 int                `json:"batch"`
		SlotsPerRep           int64              `json:"slots_per_rep"`
		SlotsPerOp            int64              `json:"slots_per_op"`
		Measurement           speedupMeasurement `json:"measurement"`
		BatchSlotsPerSec      float64            `json:"batch_slots_per_sec"`
		SequentialSlotsPerSec float64            `json:"sequential_slots_per_sec"`
		MinSpeedup            float64            `json:"min_speedup"`
		SteadyStateLoopAllocs float64            `json:"batch_steady_state_loop_allocs"`
		GoMaxProcs            int                `json:"gomaxprocs"`
		GoVersion             string             `json:"go_version"`
	}{
		Benchmark:             "BenchmarkBatchSlotsPerOp",
		Config:                "greedy-FI (fig3a policy family), Weibull(40,3), Bernoulli(0.1,1) recharge, K=1000, B=10000 replications x T=10000 slots",
		Batch:                 batchBenchReps,
		SlotsPerRep:           batchBenchSlots,
		SlotsPerOp:            totalSlots,
		Measurement:           m,
		BatchSlotsPerSec:      float64(totalSlots) * 1e9 / float64(m.MedianBatchNsPerOp),
		SequentialSlotsPerSec: float64(totalSlots) * 1e9 / float64(m.MedianSequentialNsPerOp),
		MinSpeedup:            batchMinSpeedup,
		SteadyStateLoopAllocs: loopAllocs,
		GoMaxProcs:            runtime.GOMAXPROCS(0),
		GoVersion:             runtime.Version(),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("batch %.2fx vs sequential (noise floor %.1f%%), %.0f steady-state loop allocs",
		m.MedianSpeedup, m.NoiseFloorPct, loopAllocs)
}
