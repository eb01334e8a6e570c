package experiments

import (
	"fmt"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/parallel"
	"eventcap/internal/sim"
)

// runAblationAdaptive measures the unknown-distribution extension: a
// sensor that learns the inter-arrival law online (sim.AdaptiveGreedyFI)
// against the oracle that knows it (the paper's assumption) and the blind
// aggressive baseline, as the observation horizon grows.
func runAblationAdaptive(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		return nil, err
	}
	p := core.DefaultParams()
	const e = 0.5
	fi, err := core.GreedyFICached(d, e, p)
	if err != nil {
		return nil, err
	}

	horizons := []float64{50_000, 200_000, 500_000, 2_000_000}
	if opts.Quick {
		horizons = []float64{50_000, 200_000}
	}
	table := &Table{
		ID:     "ablation-adaptive",
		Title:  "online distribution learning vs the known-distribution oracle",
		XLabel: "T",
		YLabel: "capture probability",
		X:      horizons,
		Notes: []string{
			fmt.Sprintf("X~W(40,3) unknown to the learner, e=%.1f, K=1000; oracle analytic U = %.4f", e, fi.CaptureProb),
			"the learner estimates the gap PMF from observed events and recomputes Theorem 1's policy every 50 events",
		},
	}
	rows, err := parallel.Map(opts.Workers, len(horizons), func(i int) ([]float64, error) {
		ys := make([]float64, 3)
		slots := int64(horizons[i])
		run := func(newPolicy func(int) sim.Policy, seedOff uint64) (float64, error) {
			res, err := runSim(opts, sim.Config{
				Dist:   d,
				Params: p,
				NewRecharge: func() energy.Recharge {
					r, _ := energy.NewBernoulli(0.5, 1)
					return r
				},
				NewPolicy:  newPolicy,
				BatteryCap: 1000,
				Slots:      slots,
				Seed:       opts.Seed + uint64(i)*10 + seedOff,
				Info:       sim.FullInfo,
				Engine:     opts.Engine,
			})
			if err != nil {
				return 0, err
			}
			return res.QoM, nil
		}
		var err error
		if ys[0], err = run(func(int) sim.Policy { return &sim.VectorFI{Vector: fi.Policy} }, 1); err != nil {
			return nil, err
		}
		if ys[1], err = run(func(int) sim.Policy { return &sim.AdaptiveGreedyFI{E: e, Params: p} }, 2); err != nil {
			return nil, err
		}
		if ys[2], err = run(func(int) sim.Policy { return sim.Aggressive{} }, 3); err != nil {
			return nil, err
		}
		return ys, nil
	})
	if err != nil {
		return nil, err
	}
	table.Series = seriesFromColumns(rows, "oracle (known dist)", "adaptive (learned)", "aggressive (blind)")
	return table, nil
}

// runAblationFaults measures the resilience of the coordination schemes
// when sensors die mid-deployment (fault injection): round-robin M-FI
// keeps assigning slots to dead sensors and loses exactly their share of
// coverage, while the uncoordinated mode degrades more gracefully at the
// price of redundancy while healthy.
func runAblationFaults(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		return nil, err
	}
	p := core.DefaultParams()
	const (
		n = 4
		e = 0.15
	)
	deadCounts := []float64{0, 1, 2, 3}
	if opts.Quick {
		deadCounts = []float64{0, 2}
	}
	table := &Table{
		ID:     "ablation-faults",
		Title:  "sensor failures: round-robin coordination vs uncoordinated",
		XLabel: "failed sensors",
		YLabel: "capture probability",
		X:      deadCounts,
		Notes: []string{
			fmt.Sprintf("N=%d sensors, X~W(40,3), e=%.2f per sensor, K=1000, T=%d; failures at T/4", n, e, opts.Slots),
			"round robin keeps dead sensors' slot assignments; uncoordinated sensors overlap but tolerate losses",
		},
	}
	team, err := core.GreedyFICached(d, n*e, p)
	if err != nil {
		return nil, err
	}
	solo, err := core.GreedyFICached(d, e, p)
	if err != nil {
		return nil, err
	}
	rows, err := parallel.Map(opts.Workers, len(deadCounts), func(i int) ([]float64, error) {
		ys := make([]float64, 2)
		dead := int(deadCounts[i])
		failAt := make(map[int]int64, dead)
		for s := 0; s < dead; s++ {
			failAt[s] = opts.Slots / 4
		}
		run := func(mode sim.Mode, vec core.Vector, seedOff uint64) (float64, error) {
			res, err := runSim(opts, sim.Config{
				Dist:   d,
				Params: p,
				NewRecharge: func() energy.Recharge {
					r, _ := energy.NewBernoulli(0.1, e/0.1)
					return r
				},
				NewPolicy:  newVectorPolicy(sim.FullInfo, vec),
				N:          n,
				Mode:       mode,
				BatteryCap: 1000,
				Slots:      opts.Slots,
				Seed:       opts.Seed + uint64(i)*10 + seedOff,
				Info:       sim.FullInfo,
				FailAt:     failAt,
				Engine:     opts.Engine,
			})
			if err != nil {
				return 0, err
			}
			return res.QoM, nil
		}
		var err error
		if ys[0], err = run(sim.ModeRoundRobin, team.Policy, 1); err != nil {
			return nil, err
		}
		if ys[1], err = run(sim.ModeAll, solo.Policy, 2); err != nil {
			return nil, err
		}
		return ys, nil
	})
	if err != nil {
		return nil, err
	}
	table.Series = seriesFromColumns(rows, "M-FI round robin", "uncoordinated")
	return table, nil
}

// runAblationMultiPoI measures the multi-PoI extension: one sensor, three
// heterogeneous event streams, the calibrated max-hazard index policy vs
// blind round-robin cycling, as the harvest rate grows.
func runAblationMultiPoI(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	p := core.DefaultParams()
	w1, err := dist.NewWeibull(40, 3)
	if err != nil {
		return nil, err
	}
	w2, err := dist.NewWeibull(25, 2)
	if err != nil {
		return nil, err
	}
	u, err := dist.NewUniformInt(10, 30)
	if err != nil {
		return nil, err
	}
	dists := []dist.Interarrival{w1, w2, u}

	es := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	if opts.Quick {
		es = []float64{0.3, 0.8}
	}
	table := &Table{
		ID:     "ablation-multipoi",
		Title:  "multi-PoI extension: hazard-index policy vs blind cycling",
		XLabel: "e",
		YLabel: "capture probability (all PoIs)",
		X:      es,
		Notes: []string{
			fmt.Sprintf("one FI sensor, three streams (W(40,3), W(25,2), U(10,30)), K=1000, T=%d", opts.Slots),
			"'analytic' is the equilibrium-age calibration of core.OptimizeMultiPoI",
		},
	}
	rows, err := parallel.Map(opts.Workers, len(es), func(i int) ([]float64, error) {
		ys := make([]float64, 3)
		e := es[i]
		solved := opts.SolvePhase()
		cal, err := core.OptimizeMultiPoI(dists, e, p)
		solved()
		if err != nil {
			return nil, err
		}
		ys[0] = cal.CaptureProb
		run := func(pol sim.PoIPolicy, seedOff uint64) (float64, error) {
			sp := opts.Span.Fork("sim.run")
			defer sp.End()
			res, err := sim.RunMultiPoI(sim.MultiPoIConfig{
				Dists:  dists,
				Params: p,
				NewRecharge: func() energy.Recharge {
					r, _ := energy.NewBernoulli(0.5, e/0.5)
					return r
				},
				Policy:     pol,
				BatteryCap: 1000,
				Slots:      opts.Slots,
				Seed:       opts.Seed + uint64(i)*10 + seedOff,
			})
			if err != nil {
				return 0, err
			}
			return res.QoM, nil
		}
		if ys[1], err = run(&sim.MaxHazardThreshold{Dists: dists, Threshold: cal.Threshold}, 1); err != nil {
			return nil, err
		}
		duty := e / p.ActivationCost()
		if ys[2], err = run(&sim.RoundRobinPoI{M: len(dists), Duty: duty}, 2); err != nil {
			return nil, err
		}
		return ys, nil
	})
	if err != nil {
		return nil, err
	}
	table.Series = seriesFromColumns(rows, "analytic", "max-hazard index", "round robin")
	return table, nil
}
