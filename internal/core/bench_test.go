package core

import (
	"testing"

	"eventcap/internal/dist"
)

// Solver microbenchmarks: the partial-information search layer by
// layer, from one belief step up to a full region search. `make
// bench-smoke` runs each once; for a measurement use e.g.
//
//	go test -run '^$' -bench . -benchtime 20x -count 5 ./internal/core

// quickClustering is the region-search configuration of the quick
// figure runs.
var quickClustering = ClusteringOptions{CoarsePoints: 8, MaxGap: 512}

func BenchmarkOptimizeClustering(b *testing.B) {
	p := DefaultParams()
	for _, c := range []struct {
		name string
		d    dist.Interarrival
		e    float64
	}{
		{"pareto-2-10-e0.25", mustPareto(b, 2, 10), 0.25},
		{"weibull-40-3-e0.1", mustWeibull(b, 40, 3), 0.1},
		{"markov", goldenMarkov(b), 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := OptimizeClustering(c.d, c.e, p, quickClustering); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEvaluatePI(b *testing.B) {
	p := DefaultParams()
	chains := goldenChains(b)
	for _, c := range []struct{ name, chain string }{
		{"elder", "pareto-elder"},
		{"dead-tail", "weibull-dead-tail"},
	} {
		var d dist.Interarrival
		var cp ClusteringPolicy
		for _, g := range chains {
			if g.name == c.chain {
				d, cp = g.d, g.cp
			}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EvaluatePI(d, p, cp.policyFn()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// beliefSink keeps the measured EventProb calls observable.
var beliefSink float64

// BenchmarkBeliefStep times one AdvanceNoCapture + EventProb on the
// Pareto(2,10) belief: "cooling" is the unobserved c = 0 step at full
// age support, "recovery" the always-on c = 1 step of the recovery
// tail, restarted every 1000 steps from the state after a 100-slot
// cooling prefix.
func BenchmarkBeliefStep(b *testing.B) {
	d := mustPareto(b, 2, 10)
	b.Run("cooling", func(b *testing.B) {
		b.ReportAllocs()
		f := NewBeliefFilter(d)
		for i := 0; i < 2*maxBeliefAges; i++ {
			f.AdvanceNoCapture(0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.AdvanceNoCapture(0)
			beliefSink += f.EventProb()
		}
	})
	b.Run("recovery", func(b *testing.B) {
		b.ReportAllocs()
		start := NewBeliefFilter(d)
		for i := 0; i < 100; i++ {
			start.AdvanceNoCapture(0)
		}
		f := start.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1000 == 999 {
				f = start.Clone()
			}
			f.AdvanceNoCapture(1)
			beliefSink += f.EventProb()
		}
	})
}

// BenchmarkRefineWindows times the window refinement of the quick
// ablation-windows point Weibull(40,3), e = 0.3, on a base policy solved
// outside the timer.
func BenchmarkRefineWindows(b *testing.B) {
	d := mustWeibull(b, 40, 3)
	p := DefaultParams()
	const e = 0.3
	base, err := OptimizeClustering(d, e, p, quickClustering)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RefineWindows(d, e, p, base, 2); err != nil {
			b.Fatal(err)
		}
	}
}
