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

// kernelBenchConfig is the sparse-activation workload both engines are
// measured on: the fig3a greedy-FI policy on Weibull(40,3) with a large
// battery, at the energy-scarce rate e=0.1 where the optimal policy
// sleeps through ~90% of each inter-arrival interval — exactly the regime
// the slot-skipping kernel targets. (The duty cycle of an
// energy-balanced policy is ~e/δ1 regardless of the workload's mean, so
// sparsity comes from the recharge rate, not the distribution.)
func kernelBenchConfig(b testing.TB, engine sim.Engine, slots int64, seed uint64) sim.Config {
	b.Helper()
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	fi, err := core.GreedyFI(d, 0.1, p)
	if err != nil {
		b.Fatal(err)
	}
	return sim.Config{
		Dist:   d,
		Params: p,
		NewRecharge: func() energy.Recharge {
			r, _ := energy.NewBernoulli(0.1, 1)
			return r
		},
		NewPolicy:  func(int) sim.Policy { return &sim.VectorFI{Vector: fi.Policy} },
		BatteryCap: 1000,
		Slots:      slots,
		Seed:       seed,
		Engine:     engine,
	}
}

// benchEngine times sim.Run alone: the config (including the GreedyFI
// policy optimization) is built once outside the measured region, so
// ns/op and allocs/op cover only the engine — per-run compile and table
// setup plus the slot loop. Each iteration reseeds so the engine cannot
// amortize across iterations.
func benchEngine(b *testing.B, engine sim.Engine) {
	cfg := kernelBenchConfig(b, engine, 1_000_000, 1)
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

// BenchmarkKernelSlotsPerOp measures the compiled kernel on the sparse
// configuration (slots/op is 1e6; ns/op / 1e6 is the per-slot cost).
// BenchmarkKernelReferenceSlotsPerOp runs the reference engine on the
// identical configuration; their ratio is the kernel speedup recorded in
// BENCH_kernel.json.
func BenchmarkKernelSlotsPerOp(b *testing.B) { benchEngine(b, sim.EngineKernel) }

// BenchmarkKernelReferenceSlotsPerOp is the reference-engine baseline on
// the same sparse configuration as BenchmarkKernelSlotsPerOp.
func BenchmarkKernelReferenceSlotsPerOp(b *testing.B) { benchEngine(b, sim.EngineReference) }

// TestKernelSteadyStateAllocs checks the kernel's hot loop allocates
// nothing: growing the run from 1 slot to 1M slots must not change the
// allocation count (all allocations are per-run setup).
func TestKernelSteadyStateAllocs(t *testing.T) {
	run := func(slots int64) float64 {
		return steadyAllocs(func() {
			if _, err := sim.Run(kernelBenchConfig(t, sim.EngineKernel, slots, 1)); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(1), run(1_000_000)
	if long > short {
		t.Errorf("kernel loop allocates: %v allocs at 1 slot, %v at 1M slots", short, long)
	}
}

// TestEmitBenchKernelJSON regenerates BENCH_kernel.json: kernel vs
// reference throughput on the sparse-activation configuration plus the
// steady-state allocation count. Gated behind an env var so normal test
// runs stay fast:
//
//	BENCH_KERNEL_JSON=BENCH_kernel.json go test -run TestEmitBenchKernelJSON .
func TestEmitBenchKernelJSON(t *testing.T) {
	path := os.Getenv("BENCH_KERNEL_JSON")
	if path == "" {
		t.Skip("set BENCH_KERNEL_JSON=<path> to emit the benchmark record")
	}
	kernel := testing.Benchmark(func(b *testing.B) { benchEngine(b, sim.EngineKernel) })
	reference := testing.Benchmark(func(b *testing.B) { benchEngine(b, sim.EngineReference) })
	const slots = 1_000_000
	loopAllocs := steadyAllocs(func() {
		sim.Run(kernelBenchConfig(t, sim.EngineKernel, slots, 1))
	}) - steadyAllocs(func() {
		sim.Run(kernelBenchConfig(t, sim.EngineKernel, 1, 1))
	})
	rec := struct {
		Benchmark             string  `json:"benchmark"`
		Config                string  `json:"config"`
		SlotsPerOp            int64   `json:"slots_per_op"`
		KernelNsPerOp         int64   `json:"kernel_ns_per_op"`
		ReferenceNsPerOp      int64   `json:"reference_ns_per_op"`
		KernelSlotsPerSec     float64 `json:"kernel_slots_per_sec"`
		ReferenceSlotsPerSec  float64 `json:"reference_slots_per_sec"`
		Speedup               float64 `json:"speedup"`
		KernelAllocsPerOp     int64   `json:"kernel_allocs_per_op"`
		ReferenceAllocsPerOp  int64   `json:"reference_allocs_per_op"`
		SteadyStateLoopAllocs float64 `json:"kernel_steady_state_loop_allocs"`
		GoMaxProcs            int     `json:"gomaxprocs"`
		GoVersion             string  `json:"go_version"`
	}{
		Benchmark:             "BenchmarkKernelSlotsPerOp",
		Config:                "greedy-FI (fig3a policy family), Weibull(40,3), Bernoulli(0.1,1) recharge, K=1000",
		SlotsPerOp:            slots,
		KernelNsPerOp:         kernel.NsPerOp(),
		ReferenceNsPerOp:      reference.NsPerOp(),
		KernelSlotsPerSec:     slots * 1e9 / float64(kernel.NsPerOp()),
		ReferenceSlotsPerSec:  slots * 1e9 / float64(reference.NsPerOp()),
		Speedup:               float64(reference.NsPerOp()) / float64(kernel.NsPerOp()),
		KernelAllocsPerOp:     kernel.AllocsPerOp(),
		ReferenceAllocsPerOp:  reference.AllocsPerOp(),
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
	t.Logf("kernel %.1f ns/op vs reference %.1f ns/op: %.2fx, steady-state loop allocs %.0f",
		float64(kernel.NsPerOp()), float64(reference.NsPerOp()), rec.Speedup, loopAllocs)
}
