package eventcap_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"eventcap/internal/energy"
	"eventcap/internal/sim"
)

// multiBenchConfig is the fleet benchmark workload: the fig6 M-FI
// construction (round-robin fleet, one shared full-information policy
// computed at the aggregate harvest rate N·e) at the energy-scarce
// point the repo's benchmark family targets. The single-sensor
// kernelBenchConfig policy is GreedyFI at e=0.1, which IS the M-FI
// policy for a fleet whose aggregate budget is 0.1 — so the fleet
// config just splits that harvest across N=8 batteries (per-sensor
// Bernoulli(0.1, 0.125)) and rotates the in-charge sensor. Sparsity
// again comes from the harvest rate: the shared policy sleeps through
// ~90% of each inter-arrival interval, the regime the fleet kernel's
// shared sleep runs exploit.
func multiBenchConfig(b testing.TB, engine sim.Engine, slots int64, seed uint64) sim.Config {
	b.Helper()
	cfg := kernelBenchConfig(b, engine, slots, seed)
	cfg.N = multiBenchSensors
	cfg.Mode = sim.ModeRoundRobin
	cfg.NewRecharge = func() energy.Recharge {
		r, _ := energy.NewBernoulli(0.1, 0.125)
		return r
	}
	return cfg
}

const (
	multiBenchSensors = 8   // N: fig6's largest fleet
	multiMinSpeedup   = 3.0 // gate: fleet kernel vs reference fleet loop
)

// benchMulti times sim.Run alone on the fleet workload, mirroring
// benchEngine: config construction (including the GreedyFI
// optimization) stays outside the measured region, and each iteration
// reseeds so the engine cannot amortize across iterations.
func benchMulti(b *testing.B, engine sim.Engine) {
	cfg := multiBenchConfig(b, engine, 1_000_000, 1)
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

// BenchmarkMultiSensorSlotsPerOp measures the fleet kernel on the
// fig6-shaped configuration (slots/op is 1e6 shared slots; each slot
// advances all 8 sensors, so ns/op / 1e6 is the per-fleet-slot cost).
func BenchmarkMultiSensorSlotsPerOp(b *testing.B) { benchMulti(b, sim.EngineKernel) }

// BenchmarkMultiSensorReferenceSlotsPerOp is the reference-engine
// baseline on the identical fleet configuration; the ratio is the
// fleet-kernel speedup recorded in BENCH_multi.json.
func BenchmarkMultiSensorReferenceSlotsPerOp(b *testing.B) { benchMulti(b, sim.EngineReference) }

// TestMultiKernelSteadyStateAllocs checks the fleet kernel's hot loop
// allocates nothing: growing the run from 1 slot to 1M slots must not
// change the allocation count (all allocations — the dense battery
// slab, per-sensor recharge streams, the per-sensor stats slice — are
// per-run setup). steadyAllocs keeps GC off while counting: a fleet
// run's setup is ~1MB of binomial fast-forward tables, enough for a GC
// cycle to start mid-measurement.
func TestMultiKernelSteadyStateAllocs(t *testing.T) {
	run := func(slots int64) float64 {
		return steadyAllocs(func() {
			if _, err := sim.Run(multiBenchConfig(t, sim.EngineKernel, slots, 1)); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(1), run(1_000_000)
	if long > short {
		t.Errorf("fleet kernel loop allocates: %v allocs at 1 slot, %v at 1M slots", short, long)
	}
}

// TestEmitBenchMultiJSON regenerates BENCH_multi.json and enforces the
// fleet kernel's performance gate: on the fig6-shaped workload (N=8
// round-robin, Weibull(40,3), Bernoulli recharge) the compiled fleet
// kernel must deliver at least 3x the reference loop's slots/sec,
// measured with the interleaved-rounds median/noise-floor protocol of
// bench_batch_test.go. Gated behind an env var so normal test runs
// stay fast:
//
//	BENCH_MULTI_JSON=BENCH_multi.json go test -run TestEmitBenchMultiJSON .
func TestEmitBenchMultiJSON(t *testing.T) {
	path := os.Getenv("BENCH_MULTI_JSON")
	if path == "" {
		t.Skip("set BENCH_MULTI_JSON=<path> to emit the benchmark record")
	}
	m := measureSpeedup(3,
		func(b *testing.B) { benchMulti(b, sim.EngineReference) },
		func(b *testing.B) { benchMulti(b, sim.EngineKernel) },
	)
	if !m.meetsSpeedup(multiMinSpeedup) {
		t.Errorf("fleet kernel speedup gate failed: median %.2fx (noise floor %.1f%%), want >= %.0fx",
			m.MedianSpeedup, m.NoiseFloorPct, multiMinSpeedup)
	}

	const slots = int64(1_000_000)
	loopAllocs := steadyAllocs(func() {
		sim.Run(multiBenchConfig(t, sim.EngineKernel, slots, 1))
	}) - steadyAllocs(func() {
		sim.Run(multiBenchConfig(t, sim.EngineKernel, 1, 1))
	})
	if loopAllocs > 0 {
		t.Errorf("fleet kernel steady-state loop allocs = %v, want 0", loopAllocs)
	}

	rec := struct {
		Benchmark             string             `json:"benchmark"`
		Config                string             `json:"config"`
		Sensors               int                `json:"sensors"`
		SlotsPerOp            int64              `json:"slots_per_op"`
		Measurement           speedupMeasurement `json:"measurement"`
		KernelSlotsPerSec     float64            `json:"kernel_slots_per_sec"`
		ReferenceSlotsPerSec  float64            `json:"reference_slots_per_sec"`
		MinSpeedup            float64            `json:"min_speedup"`
		SteadyStateLoopAllocs float64            `json:"kernel_steady_state_loop_allocs"`
		GoMaxProcs            int                `json:"gomaxprocs"`
		GoVersion             string             `json:"go_version"`
	}{
		Benchmark:             "BenchmarkMultiSensorSlotsPerOp",
		Config:                "M-FI (fig6 policy family at aggregate rate 0.1), N=8 round-robin, Weibull(40,3), Bernoulli(0.1,0.125) recharge per sensor, K=1000",
		Sensors:               multiBenchSensors,
		SlotsPerOp:            slots,
		Measurement:           m,
		KernelSlotsPerSec:     float64(slots) * 1e9 / float64(m.MedianBatchNsPerOp),
		ReferenceSlotsPerSec:  float64(slots) * 1e9 / float64(m.MedianSequentialNsPerOp),
		MinSpeedup:            multiMinSpeedup,
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
	t.Logf("fleet kernel %.2fx vs reference (noise floor %.1f%%), %.0f steady-state loop allocs",
		m.MedianSpeedup, m.NoiseFloorPct, loopAllocs)
}
