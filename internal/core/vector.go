package core

import (
	"fmt"

	"eventcap/internal/dist"
	"eventcap/internal/numeric"
)

// Vector is a stationary activation policy: At(i) is the probability c_i
// of taking the active action in event state i (slots since the last
// event under full information, slots since the last capture under
// partial information). The explicit prefix covers states 1..len(Prefix);
// Tail applies to every later state, so policies with an infinite
// always-on region (the clustering policy's recovery tail, Theorem 1's
// "1, 1, ..." suffix) are represented exactly.
type Vector struct {
	Prefix []float64
	Tail   float64
}

// At returns c_i for state i >= 1 (0 for smaller i).
func (v Vector) At(i int) float64 {
	if i < 1 {
		return 0
	}
	if i <= len(v.Prefix) {
		return v.Prefix[i-1]
	}
	return v.Tail
}

// Validate checks that every probability lies in [0, 1].
func (v Vector) Validate() error {
	for i, c := range v.Prefix {
		if !validProb(c) {
			return fmt.Errorf("core: activation probability %g at state %d out of [0,1]", c, i+1)
		}
	}
	if !validProb(v.Tail) {
		return fmt.Errorf("core: tail activation probability %g out of [0,1]", v.Tail)
	}
	return nil
}

// trimmed returns v with trailing prefix entries equal to the tail
// removed.
func (v Vector) trimmed() Vector {
	n := len(v.Prefix)
	// floateq:ok lossless compression: only bit-identical entries may fold into the tail
	for n > 0 && v.Prefix[n-1] == v.Tail {
		n--
	}
	out := Vector{Prefix: make([]float64, n), Tail: v.Tail}
	copy(out.Prefix, v.Prefix[:n])
	return out
}

// CaptureProbFI returns U(π) = Σ α_i c_i, the full-information capture
// probability under the energy assumption (objective (7)).
func (v Vector) CaptureProbFI(d dist.Interarrival) float64 {
	var sum numeric.KahanSum
	i := 1
	for ; i <= len(v.Prefix); i++ {
		c := v.Prefix[i-1]
		if c != 0 {
			sum.Add(c * d.PMF(i))
		}
	}
	if v.Tail > 0 {
		// Σ_{i>L} α_i = 1 − F(L).
		sum.Add(v.Tail * (1 - d.CDF(len(v.Prefix))))
	}
	return sum.Value()
}

// ActivationsPerCycle returns n(π) = Σ c_i·(1−F(i−1)): the expected
// number of active slots per inter-arrival interval (Eq. (4)).
func (v Vector) ActivationsPerCycle(d dist.Interarrival) float64 {
	var sum numeric.KahanSum
	for i := 1; i <= len(v.Prefix); i++ {
		c := v.Prefix[i-1]
		if c != 0 {
			sum.Add(c * (1 - d.CDF(i-1)))
		}
	}
	if v.Tail > 0 {
		sum.Add(v.Tail * survivalSumFrom(d, len(v.Prefix)))
	}
	return sum.Value()
}

// EnergyPerCycleFI returns Σ ξ_i c_i with ξ_i = δ1(1−F(i−1)) + δ2 α_i:
// the expected energy consumed per inter-arrival interval under full
// information (left side of the balance constraint (8)).
func (v Vector) EnergyPerCycleFI(d dist.Interarrival, p Params) float64 {
	return p.Delta1*v.ActivationsPerCycle(d) + p.Delta2*v.CaptureProbFI(d)
}

// EnergyRateFI returns the per-slot average energy use u = Σ ξ_i c_i / μ.
// The policy is energy balanced at recharge rate e when EnergyRateFI == e.
func (v Vector) EnergyRateFI(d dist.Interarrival, p Params) float64 {
	return v.EnergyPerCycleFI(d, p) / d.Mean()
}

// survivalSumFrom returns Σ_{j>=from}(1−F(j)). Distributions with heavy
// tails provide an analytic implementation via the tailSummer interface;
// otherwise the series is summed until it is numerically exhausted.
func survivalSumFrom(d dist.Interarrival, from int) float64 {
	type tailSummer interface{ SurvivalSumFrom(from int) float64 }
	if ts, ok := d.(tailSummer); ok {
		return ts.SurvivalSumFrom(from)
	}
	if from < 0 {
		from = 0
	}
	var sum numeric.KahanSum
	for j := from; j < from+(1<<22); j++ {
		s := 1 - d.CDF(j)
		if s <= 0 {
			break
		}
		sum.Add(s)
		if s < 1e-14 && j > from+8 {
			break
		}
	}
	return sum.Value()
}
