// Package renewal implements discrete-time renewal theory for slotted
// event processes: the renewal mass function and the stationary age
// distribution.
//
// The mass function is the discrete counterpart of the paper's Appendix
// B m(y) and an independent route to the partial-information event
// probabilities that cross-validates the Bayes filter in internal/core;
// the stationary age distribution calibrates the multi-PoI threshold
// policy (core.OptimizeMultiPoI).
package renewal

import (
	"fmt"

	"eventcap/internal/numeric"
)

// Process is a discrete renewal process with a finite inter-arrival PMF.
// alpha[k] = P(X = k+1). A renewal ("event") is assumed at slot 0; Mass
// conditions on it.
//
// A Process caches the renewal mass function and grows it on demand; it is
// not safe for concurrent use.
type Process struct {
	alpha []float64
	mean  float64
	mass  []float64 // mass[t-1] = m(t) = P(renewal exactly at slot t), t >= 1
}

// New constructs a Process from a PMF over slots 1..len(alpha). The PMF
// must be nonnegative and sum to 1 within 1e-9 (use dist.Tabulate to
// prepare it).
func New(alpha []float64) (*Process, error) {
	if len(alpha) == 0 {
		return nil, fmt.Errorf("renewal: empty PMF")
	}
	var sum, mean numeric.KahanSum
	for k, a := range alpha {
		if a < 0 {
			return nil, fmt.Errorf("renewal: negative PMF %g at slot %d", a, k+1)
		}
		sum.Add(a)
		mean.Add(float64(k+1) * a)
	}
	if s := sum.Value(); s < 1-1e-9 || s > 1+1e-9 {
		return nil, fmt.Errorf("renewal: PMF sums to %g, want 1", s)
	}
	p := &Process{
		alpha: make([]float64, len(alpha)),
		mean:  mean.Value(),
	}
	copy(p.alpha, alpha)
	return p, nil
}

// Mean returns μ = E[X].
func (p *Process) Mean() float64 { return p.mean }

// alphaAt returns α_i (0 outside the table).
func (p *Process) alphaAt(i int) float64 {
	if i < 1 || i > len(p.alpha) {
		return 0
	}
	return p.alpha[i-1]
}

// extendMass grows the cached renewal mass function through slot t using
// the discrete renewal equation m(t) = α(t) + Σ_{s=1}^{t−1} m(s)·α(t−s).
func (p *Process) extendMass(t int) {
	for len(p.mass) < t {
		n := len(p.mass) + 1 // computing m(n)
		var sum numeric.KahanSum
		sum.Add(p.alphaAt(n))
		// Only s with n−s within the PMF support contribute.
		lo := n - len(p.alpha)
		if lo < 1 {
			lo = 1
		}
		for s := lo; s <= n-1; s++ {
			a := p.alphaAt(n - s)
			if a != 0 {
				sum.Add(p.mass[s-1] * a)
			}
		}
		v := sum.Value()
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		p.mass = append(p.mass, v)
	}
}

// Mass returns m(t) = P(a renewal occurs exactly at slot t | renewal at
// slot 0) for t >= 1; Mass(0) is 1 by convention and Mass of negative
// slots is 0.
func (p *Process) Mass(t int) float64 {
	switch {
	case t < 0:
		return 0
	case t == 0:
		return 1
	}
	p.extendMass(t)
	return p.mass[t-1]
}

// EquilibriumAge returns the stationary (time-average) distribution of the
// renewal process's age: P(age = j) = (1 − F(j−1))/μ for j >= 1. This is
// the belief an observer holds about a renewal process it has never
// observed — the starting point of a sensor deployed long after the
// process began, as opposed to the paper's "event at slot 0" convention.
// The returned slice has one entry per age 1..len(alpha).
func (p *Process) EquilibriumAge() []float64 {
	out := make([]float64, len(p.alpha))
	surv := 1.0
	var f numeric.KahanSum
	for j := range out {
		out[j] = surv / p.mean
		f.Add(p.alpha[j])
		surv = 1 - f.Value()
		if surv < 0 {
			surv = 0
		}
	}
	return out
}
