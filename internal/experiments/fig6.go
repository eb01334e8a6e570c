package experiments

import (
	"fmt"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/parallel"
	"eventcap/internal/sim"
)

// Figure 6 (Section VI-B): N rechargeable sensors monitoring one PoI,
// X ~ W(40,3), per-sensor Bernoulli recharge q = 0.1, K = 1000. M-FI and
// M-PI run the single-sensor policies computed for the aggregate rate N·e
// under round-robin slot assignment; the aggressive baseline uses the
// same slot assignment, the periodic baseline rotates θ2-slot blocks.
// Panel (a) sweeps N at c = 1; panel (b) sweeps c at N = 5.

const (
	fig6K      = 1000
	fig6Q      = 0.1
	fig6Theta1 = 3
)

// fig6Policies are the four policies of Figure 6, in column order; the
// index of each is also its run's seed offset (plus one).
var fig6Policies = []string{"M-FI", "M-PI", "pi_AG", "pi_PE"}

// fig6Run measures policy fig6Policies[policy] at one (N, c) setting: its
// own solve, then its simulation at seedBase + policy + 1.
func fig6Run(opts Options, n int, c float64, policy int, seedBase uint64) (float64, error) {
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		return 0, err
	}
	p := core.DefaultParams()
	e := fig6Q * c
	aggregate := float64(n) * e

	newRecharge := func() energy.Recharge {
		r, _ := energy.NewBernoulli(fig6Q, c)
		return r
	}
	cfg := sim.Config{
		Dist:        d,
		Params:      p,
		NewRecharge: newRecharge,
		N:           n,
		Mode:        sim.ModeRoundRobin,
		BatteryCap:  fig6K,
		Slots:       opts.Slots,
		Seed:        seedBase + uint64(policy) + 1,
		Info:        sim.PartialInfo,
		Engine:      opts.Engine,
	}
	switch policy {
	case 0:
		// M-FI: greedy policy at the aggregate recharge rate.
		solved := opts.SolvePhase()
		fi, err := core.GreedyFICached(d, aggregate, p)
		solved()
		if err != nil {
			return 0, err
		}
		cfg.Info = sim.FullInfo
		cfg.NewPolicy = newVectorPolicy(sim.FullInfo, fi.Policy)
	case 1:
		// M-PI: clustering policy at the aggregate rate.
		vec, _, err := robustClustering(d, aggregate, p, opts, fig6K, newRecharge, seedBase)
		if err != nil {
			return 0, err
		}
		cfg.NewPolicy = newVectorPolicy(sim.PartialInfo, vec)
	case 2:
		// Multi-sensor aggressive: round-robin slots, aggressive inside.
		cfg.NewPolicy = func(int) sim.Policy { return sim.Aggressive{} }
	default:
		// Multi-sensor periodic: θ2-slot blocks rotate across sensors;
		// each sensor is energy balanced at θ2(θ1, N·e).
		theta2, err := core.PeriodicTheta2(fig6Theta1, aggregate, d, p)
		if err != nil {
			return 0, err
		}
		pol, err := sim.NewPeriodic(fig6Theta1, theta2)
		if err != nil {
			return 0, err
		}
		cfg.Mode, cfg.BlockLen = sim.ModeBlocks, pol.Theta2
		cfg.NewPolicy = func(int) sim.Policy { return pol }
	}
	res, err := runSim(opts, cfg)
	if err != nil {
		return 0, err
	}
	return res.QoM, nil
}

func runFig6(id, title, xlabel string, opts Options, points []float64, setting func(x float64) (n int, c float64), note string) (*Table, error) {
	opts = opts.withDefaults()
	if opts.Quick && len(points) > 3 {
		points = []float64{points[0], points[len(points)/2], points[len(points)-1]}
	}
	table := &Table{
		ID:     id,
		Title:  title,
		XLabel: xlabel,
		YLabel: "capture probability",
		X:      points,
		Notes:  []string{note + fmt.Sprintf(", K=%d, T=%d", fig6K, opts.Slots)},
	}
	// Each (N or c point, policy) pair is one pool job, so a point's four
	// runs spread over the workers instead of queueing on one.
	np := len(fig6Policies)
	qoms, err := parallel.Map(opts.Workers, np*len(points), func(j int) (float64, error) {
		i, policy := j/np, j%np
		n, c := setting(points[i])
		q, err := fig6Run(opts, n, c, policy, opts.Seed+uint64(i)*10)
		if err != nil {
			return 0, fmt.Errorf("%s %s at %s=%g: %w", id, fig6Policies[policy], xlabel, points[i], err)
		}
		return q, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(points))
	for i := range rows {
		rows[i] = qoms[i*np : (i+1)*np]
	}
	table.Series = seriesFromColumns(rows, fig6Policies...)
	return table, nil
}

func runFig6a(opts Options) (*Table, error) {
	return runFig6("fig6a", "multi-sensor QoM vs N (q=0.1, c=1)", "N", opts,
		[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		func(x float64) (int, float64) { return int(x), 1 },
		"X~W(40,3), Bernoulli(q=0.1, c=1) per sensor")
}

func runFig6b(opts Options) (*Table, error) {
	return runFig6("fig6b", "multi-sensor QoM vs c (N=5, q=0.1)", "c", opts,
		[]float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0},
		func(x float64) (int, float64) { return 5, x },
		"X~W(40,3), N=5, Bernoulli(q=0.1, c) per sensor")
}
