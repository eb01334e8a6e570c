// Package dist models the slotted inter-arrival distributions that drive
// the paper's renewal event processes.
//
// Time is slotted; an inter-arrival time X is a positive integer number of
// slots. Following the paper's Section III notation:
//
//	α_i = P(X = i)               (PMF)
//	F(i) = P(X <= i)             (CDF)
//	β_i = P(X = i | X > i-1)     (discrete hazard; the paper's Eq. (3))
//	μ   = E[X]                   (mean inter-arrival time)
//
// Continuous distributions from the paper (Weibull W(η1,η2), Pareto
// P(γ1,γ2)) are discretized by α_i = F(i) − F(i−1), exactly the slotting
// the paper's simulations use; sampling draws the continuous variate and
// takes the ceiling, which realizes the same discrete law without
// truncating heavy tails.
package dist

import (
	"fmt"
	"math"

	"eventcap/internal/numeric"
	"eventcap/internal/rng"
)

// Interarrival is a distribution of event inter-arrival times in slots.
// Implementations must be immutable after construction and safe for
// concurrent readers.
type Interarrival interface {
	// PMF returns α_i = P(X = i). It is 0 for i < 1.
	PMF(i int) float64
	// CDF returns F(i) = P(X <= i). It is 0 for i < 1 and approaches 1
	// as i grows.
	CDF(i int) float64
	// Hazard returns β_i = P(X = i | X > i−1), taken as 0 once the
	// distribution has no remaining mass.
	Hazard(i int) float64
	// Mean returns μ = E[X] of the discretized distribution.
	Mean() float64
	// Sample draws an inter-arrival time (>= 1 slot).
	Sample(src *rng.Source) int
	// Name identifies the distribution, e.g. "Weibull(40,3)".
	Name() string
}

// Keyed is implemented by distributions whose full identity can be
// captured in a stable string, enabling memoization of policy
// computations keyed on the distribution (see the policy cache in
// internal/core). Two instances with equal, non-empty keys must be
// interchangeable: identical PMF, CDF, Hazard, and Mean. CacheKey
// returns "" when the identity cannot be captured, which disables
// caching for that instance.
type Keyed interface {
	CacheKey() string
}

// hashFloats is a 64-bit FNV-1a hash over the exact bit patterns of a
// float slice, used by table-backed distributions (Empirical) whose
// display name does not identify their contents.
func hashFloats(vals []float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range vals {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// hazardFromCDF computes β_i from PMF/CDF, shared by implementations.
// At the last support point (CDF(i) == 1) it returns exactly 1: the
// quotient PMF(i)/(1 − CDF(i−1)) can round below 1 there, which would
// let a belief filter keep mass alive at ages the law cannot reach.
func hazardFromCDF(d Interarrival, i int) float64 {
	if i < 1 {
		return 0
	}
	surv := 1 - d.CDF(i-1)
	if surv <= 0 {
		return 0
	}
	if d.CDF(i) == 1 { // floateq:ok exact support end: no path outlives age i
		return 1
	}
	h := d.PMF(i) / surv
	if h > 1 {
		return 1
	}
	if h < 0 {
		return 0
	}
	return h
}

// meanFromSurvival computes Σ_{j>=0} (1−F(j)) with adaptive truncation.
// It works for any distribution whose survival decays to zero; heavy-tail
// implementations override Mean with analytic tail corrections instead.
func meanFromSurvival(cdf func(int) float64, cap int) float64 {
	var sum numeric.KahanSum
	for j := 0; j < cap; j++ {
		s := 1 - cdf(j)
		if s <= 0 {
			break
		}
		sum.Add(s)
		if s < 1e-15 && j > 8 {
			break
		}
	}
	return sum.Value()
}

// ceilGap is the slotting step shared by every inversion sampler: round
// the continuous variate up to a whole slot, clamped to >= 1. SampleU
// implementations must apply exactly this rounding so QuantileTable's
// bisection reproduces Sample bit for bit.
func ceilGap(x float64) int {
	i := int(math.Ceil(x))
	if i < 1 {
		i = 1
	}
	return i
}

// Tabulation is a finite table of α_i built from a distribution, used by
// algorithms that need explicit vectors (the LP formulation, the
// clustering-policy optimizer, renewal-function recursions).
type Tabulation struct {
	// Alpha[k] is α_{k+1}: PMF of inter-arrival time k+1 slots.
	Alpha []float64
	// TailMass is the probability mass beyond the table before
	// renormalization.
	TailMass float64
	// Truncated reports whether the table hit the hard cap rather than
	// the tail-mass target.
	Truncated bool
}

// Tabulate builds a PMF table covering all but at most epsTail of the
// mass, never exceeding maxLen entries, and renormalizes it to sum to 1.
// It returns an error if the distribution yields no mass within maxLen.
func Tabulate(d Interarrival, epsTail float64, maxLen int) (*Tabulation, error) {
	if maxLen < 1 {
		return nil, fmt.Errorf("dist: Tabulate maxLen %d < 1", maxLen)
	}
	if epsTail < 0 {
		epsTail = 0
	}
	n := maxLen
	truncated := true
	for i := 1; i <= maxLen; i++ {
		if 1-d.CDF(i) <= epsTail {
			n = i
			truncated = false
			break
		}
	}
	alpha := make([]float64, n)
	var sum numeric.KahanSum
	for i := 1; i <= n; i++ {
		a := d.PMF(i)
		if a < 0 {
			return nil, fmt.Errorf("dist: %s has negative PMF %g at slot %d", d.Name(), a, i)
		}
		alpha[i-1] = a
		sum.Add(a)
	}
	total := sum.Value()
	if total <= 0 {
		return nil, fmt.Errorf("dist: %s has no mass within %d slots", d.Name(), maxLen)
	}
	tail := 1 - total
	if tail < 0 {
		tail = 0
	}
	for i := range alpha {
		alpha[i] /= total
	}
	return &Tabulation{Alpha: alpha, TailMass: tail, Truncated: truncated}, nil
}

// Mean returns the mean of the tabulated (renormalized) distribution.
func (t *Tabulation) Mean() float64 {
	var sum numeric.KahanSum
	for k, a := range t.Alpha {
		sum.Add(float64(k+1) * a)
	}
	return sum.Value()
}
