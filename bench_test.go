package eventcap_test

import (
	"testing"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/experiments"
	"eventcap/internal/mdp"
	"eventcap/internal/sim"
)

// One benchmark per paper figure: each regenerates the figure's series
// (in reduced "quick" form so a bench iteration stays in seconds; run
// cmd/experiments for the full-size reproduction) and reports the
// wall-clock cost of the reproduction pipeline itself.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		opts := experiments.Options{Quick: true, Seed: uint64(i + 1), Slots: 50_000}
		table, err := exp.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Series) == 0 || len(table.X) == 0 {
			b.Fatalf("experiment %s produced an empty table", id)
		}
	}
}

func BenchmarkFig3aAsymptoticFI(b *testing.B)            { benchExperiment(b, "fig3a") }
func BenchmarkFig3bAsymptoticPI(b *testing.B)            { benchExperiment(b, "fig3b") }
func BenchmarkFig4aPolicyComparisonWeibull(b *testing.B) { benchExperiment(b, "fig4a") }
func BenchmarkFig4bPolicyComparisonPareto(b *testing.B)  { benchExperiment(b, "fig4b") }
func BenchmarkFig5aEBCW(b *testing.B)                    { benchExperiment(b, "fig5a") }
func BenchmarkFig5bEBCW(b *testing.B)                    { benchExperiment(b, "fig5b") }
func BenchmarkFig6aMultiSensorN(b *testing.B)            { benchExperiment(b, "fig6a") }
func BenchmarkFig6bMultiSensorC(b *testing.B)            { benchExperiment(b, "fig6b") }

// Ablation benches (DESIGN.md section 6).

func BenchmarkAblationGreedyVsLP(b *testing.B)    { benchExperiment(b, "ablation-lp") }
func BenchmarkAblationWindowRefine(b *testing.B)  { benchExperiment(b, "ablation-windows") }
func BenchmarkAblationPOMDPGrowth(b *testing.B)   { benchExperiment(b, "ablation-pomdp") }
func BenchmarkAblationRecharge(b *testing.B)      { benchExperiment(b, "ablation-recharge") }
func BenchmarkAblationLoadBalance(b *testing.B)   { benchExperiment(b, "ablation-loadbalance") }
func BenchmarkAblationPoissonEvents(b *testing.B) { benchExperiment(b, "ablation-poisson") }

// Component micro-benchmarks: the costs a user of the library actually
// pays — policy computation and simulation throughput.

func BenchmarkPolicyGreedyFI(b *testing.B) {
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyFI(d, 0.5, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyOptimizeClustering(b *testing.B) {
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.OptimizeClustering(d, 0.5, p, core.ClusteringOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyOptimizeEBCW(b *testing.B) {
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, err := core.OptimizeEBCW(0.7, 0.6, 1, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorSlotsPerOp measures raw reference-engine throughput
// (slots/op is Slots; see ns/op for per-slot cost). It pins
// EngineReference so it keeps tracking the interpreted per-slot loop;
// BenchmarkGates/kernel in bench_gates_test.go covers the compiled
// kernel on a sparser configuration.
func BenchmarkSimulatorSlotsPerOp(b *testing.B) {
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	fi, err := core.GreedyFI(d, 0.5, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Dist:   d,
			Params: p,
			NewRecharge: func() energy.Recharge {
				r, _ := energy.NewBernoulli(0.5, 1)
				return r
			},
			NewPolicy:  func(int) sim.Policy { return &sim.VectorFI{Vector: fi.Policy} },
			BatteryCap: 1000,
			Slots:      1_000_000,
			Seed:       uint64(i + 1),
			Engine:     sim.EngineReference,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorMultiSensor8(b *testing.B) {
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	fi, err := core.GreedyFI(d, 0.8, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Dist:   d,
			Params: p,
			NewRecharge: func() energy.Recharge {
				r, _ := energy.NewBernoulli(0.1, 1)
				return r
			},
			NewPolicy:  func(int) sim.Policy { return &sim.VectorFI{Vector: fi.Policy} },
			N:          8,
			Mode:       sim.ModeRoundRobin,
			BatteryCap: 1000,
			Slots:      500_000,
			Seed:       uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPOMDPExact shows the cost wall of the exact approach the paper
// proves intractable: doubling the horizon multiplies the reachable
// information states.
func BenchmarkPOMDPExact(b *testing.B) {
	alpha := []float64{0.1, 0.2, 0.3, 0.25, 0.15}
	for i := 0; i < b.N; i++ {
		p, err := mdp.NewPOMDP(alpha, 1, 2, 8, 1, 12)
		if err != nil {
			b.Fatal(err)
		}
		_ = p.SolveExact()
	}
}

func BenchmarkAblationAdaptiveLearning(b *testing.B) { benchExperiment(b, "ablation-adaptive") }
func BenchmarkAblationFaultResilience(b *testing.B)  { benchExperiment(b, "ablation-faults") }

func BenchmarkAblationMultiPoI(b *testing.B) { benchExperiment(b, "ablation-multipoi") }
