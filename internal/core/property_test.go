package core

import (
	"math"
	"testing"

	"eventcap/internal/dist"
	"eventcap/internal/rng"
)

// TestGreedyDominatesRandomFeasibleVectors: no feasible activation vector
// (random, scaled onto the energy budget) may beat Theorem 1's policy.
func TestGreedyDominatesRandomFeasibleVectors(t *testing.T) {
	src := rng.New(71, 0)
	p := DefaultParams()
	for trial := 0; trial < 20; trial++ {
		d := mustEmpirical(t, randomEmpirical(src, 18))
		sat := p.SaturationRate(d.Mean())
		e := (0.1 + 0.8*src.Float64()) * sat
		budget := e * d.Mean()

		greedy, err := GreedyFI(d, e, p)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 20; v++ {
			// Random vector, scaled down until it fits the budget.
			n := d.MaxSupport()
			prefix := make([]float64, n)
			for i := range prefix {
				prefix[i] = src.Float64()
			}
			vec := Vector{Prefix: prefix}
			cost := vec.EnergyPerCycleFI(d, p)
			if cost > budget {
				scale := budget / cost
				for i := range prefix {
					prefix[i] *= scale
				}
				// Scaling c is conservative (cost is linear in c), so
				// the result is feasible.
			}
			if u := vec.CaptureProbFI(d); u > greedy.CaptureProb+1e-9 {
				t.Fatalf("trial %d: random feasible vector U=%v beats greedy %v", trial, u, greedy.CaptureProb)
			}
		}
	}
}

// TestEvaluatePIMatchesMonteCarloChain cross-validates the analytic
// f-chain evaluation against a direct Monte Carlo simulation of the
// hidden renewal process under the same policy (no battery, the energy
// assumption).
func TestEvaluatePIMatchesMonteCarloChain(t *testing.T) {
	src := rng.New(72, 0)
	p := DefaultParams()
	for trial := 0; trial < 6; trial++ {
		d := mustEmpirical(t, randomEmpirical(src, 12))
		// Random clustering-shaped policy over the support.
		n := d.MaxSupport()
		n1 := 1 + src.Intn(n)
		n2 := n1 + src.Intn(n-n1+1)
		n3 := n2 + 1 + src.Intn(8)
		cp := ClusteringPolicy{N1: n1, N2: n2, N3: n3, C1: src.Float64(), C2: 1, C3: src.Float64()}
		if cp.Validate() != nil {
			continue
		}
		want, err := EvaluatePI(d, p, cp.policyFn())
		if err != nil {
			continue // e.g. never renews; MC would not terminate either
		}

		// Monte Carlo over capture cycles.
		const slots = 400000
		age := 1
		f := 1
		var captures, events int64
		var energy float64
		for s := 0; s < slots; s++ {
			c := cp.At(f)
			active := src.Bernoulli(c)
			event := src.Bernoulli(d.Hazard(age))
			if active {
				energy += p.Delta1
			}
			if event {
				events++
				age = 1
				if active {
					captures++
					energy += p.Delta2
					f = 1
					continue
				}
			} else {
				age++
			}
			f++
		}
		gotU := float64(captures) / float64(events)
		gotE := energy / slots
		if math.Abs(gotU-want.CaptureProb) > 0.03 {
			t.Fatalf("trial %d (%s, %+v): MC U=%v vs analytic %v",
				trial, d.Name(), cp, gotU, want.CaptureProb)
		}
		if math.Abs(gotE-want.EnergyRate) > 0.05*(1+want.EnergyRate) {
			t.Fatalf("trial %d: MC energy %v vs analytic %v", trial, gotE, want.EnergyRate)
		}
	}
}

// TestClusteringNeverBeatsGreedyFI: partial information cannot beat full
// information at the same energy (randomized workloads).
func TestClusteringNeverBeatsGreedyFI(t *testing.T) {
	src := rng.New(73, 0)
	p := DefaultParams()
	for trial := 0; trial < 8; trial++ {
		d := mustEmpirical(t, randomEmpirical(src, 15))
		e := (0.2 + 0.6*src.Float64()) * p.SaturationRate(d.Mean())
		fi, err := GreedyFI(d, e, p)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := OptimizeClustering(d, e, p, ClusteringOptions{MaxGap: 512})
		if err != nil {
			t.Fatal(err)
		}
		if pi.CaptureProb > fi.CaptureProb+1e-6 {
			t.Fatalf("trial %d (%s, e=%v): PI %v beats FI %v",
				trial, d.Name(), e, pi.CaptureProb, fi.CaptureProb)
		}
		if pi.EnergyRate > e*(1+1e-6)+1e-9 {
			t.Fatalf("trial %d: clustering exceeds budget", trial)
		}
	}
}

// TestGreedyBudgetIdentityProperty: the greedy policy satisfies the
// balance constraint (8) exactly (below saturation) on random workloads.
func TestGreedyBudgetIdentityProperty(t *testing.T) {
	src := rng.New(74, 0)
	p := DefaultParams()
	for trial := 0; trial < 30; trial++ {
		d := mustEmpirical(t, randomEmpirical(src, 25))
		e := 0.9 * src.Float64() * p.SaturationRate(d.Mean())
		res, err := GreedyFI(d, e, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Policy.EnergyPerCycleFI(d, p); math.Abs(got-e*d.Mean()) > 1e-6*(1+e*d.Mean()) {
			t.Fatalf("trial %d: Σξc = %v, want eμ = %v", trial, got, e*d.Mean())
		}
	}
}

// TestEvaluatePIBoundedOnGeneratedPolicies: no partial-information policy
// captures more than every event, and every f-chain ends on the survival
// tolerance, not on the horizon cap. The policies are the always-on
// policy, the solver's picks at several rates, and random clustering
// shapes with deterministic or fractional boundaries, on the paper's
// Weibull(40,3) (ageing: its belief used to run out of mass), Pareto(2,10)
// (heavy tail: the elder bucket's mean) and the fig5a Markov chain.
func TestEvaluatePIBoundedOnGeneratedPolicies(t *testing.T) {
	src := rng.New(75, 0)
	p := DefaultParams()
	boundary := func() float64 {
		if src.Intn(2) == 0 {
			return 1
		}
		return src.Float64()
	}
	for _, c := range []struct {
		d     dist.Interarrival
		rates []float64
	}{
		{mustWeibull(t, 40, 3), []float64{0.1, 0.3, 0.5, 0.8}},
		{mustPareto(t, 2, 10), []float64{0.25, 0.75, 1.25}},
		{goldenMarkov(t), []float64{0.5, 1, 1.5}},
	} {
		policies := []ClusteringPolicy{{N1: 1, N2: 1, N3: 2, C1: 1, C2: 1, C3: 1}}
		for _, e := range c.rates {
			res, err := OptimizeClustering(c.d, e, p, quickClustering)
			if err != nil {
				t.Fatalf("%s e=%g: %v", c.d.Name(), e, err)
			}
			if res.CaptureProb > 1+1e-12 {
				t.Errorf("%s e=%g: solver reports U = %.17g > 1", c.d.Name(), e, res.CaptureProb)
			}
			policies = append(policies, res.Policy)
		}
		for k := 0; k < 60; k++ {
			n1 := 1 + src.Intn(150)
			n2 := n1 + src.Intn(100)
			n3 := n2 + 1 + src.Intn(600)
			policies = append(policies, ClusteringPolicy{N1: n1, N2: n2, N3: n3, C1: boundary(), C2: boundary(), C3: boundary()})
		}
		for _, cp := range policies {
			ev, err := EvaluatePI(c.d, p, cp.policyFn())
			if err != nil {
				t.Fatalf("%s %+v: %v", c.d.Name(), cp, err)
			}
			if ev.CaptureProb > 1+1e-12 {
				t.Errorf("%s %+v: U = %.17g > 1", c.d.Name(), cp, ev.CaptureProb)
			}
			if ev.Horizon >= piMaxHorizon {
				t.Errorf("%s %+v: walk reached the horizon cap %d", c.d.Name(), cp, piMaxHorizon)
			}
		}
	}
}
