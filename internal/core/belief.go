package core

import (
	"math"

	"eventcap/internal/dist"
	"eventcap/internal/numeric"
)

// BeliefFilter is the exact Bayes filter over the hidden renewal age used
// by the partial-information analysis. The age is the number of slots
// since the last true event (age 1 means the last event happened in the
// previous slot). It realizes Appendix B's hazards in slotted time:
// instead of evaluating the renewal integrals G_t(x) directly, the filter
// propagates the posterior over ages through the policy's action sequence
// and reads P(event this slot) off the hazards β_j.
//
// Update equations, writing b for the current posterior, β̂ = Σ b(j)β_j,
// and c for the activation probability used this slot:
//
//	capture               → reset to the point mass at age 1
//	no capture (prob 1−cβ̂) → b'(1)  = β̂(1−c) / (1−cβ̂)      (missed event)
//	                         b'(j+1) = b(j)(1−β_j) / (1−cβ̂)  (no event)
//
// For deterministic c ∈ {0, 1} this is exactly the paper's construction;
// for fractional c it marginalizes the policy's randomization.
//
// The hazards β_1..β_maxBeliefAges are tabulated once when the filter is
// built: the filter is re-run thousands of times by the clustering-region
// optimizer and distribution hazards (Weibull, Pareto) cost several
// transcendental calls each. The table is never written afterwards, so
// clones share it and may be advanced from different goroutines.
//
// Updates pay only for the live part of the posterior. Every age below lo
// has zero probability (an always-on sensor that saw nothing knows the
// last event is at least that old), and those entries are neither written
// nor read: EventProb and AdvanceNoCapture run over b[lo:], performing
// exactly the operations, in exactly the order, of a walk over the whole
// array that skips zero entries.
type BeliefFilter struct {
	hz []float64 // hz[j-1] = β_j for j = 1..maxBeliefAges; read-only
	b  []float64 // b[j-1] = P(age == j) for j > lo; b[:lo] is stale
	lo int       // ages 1..lo have zero probability; lo >= len(b) when no mass is left

	scratch []float64 // reused buffer for updates

	prob      float64 // memoized EventProb for the current belief
	probValid bool
}

// maxBeliefAges caps the posterior's age support. Mass that would age
// past the cap is folded into an absorbing elder bucket (see
// AdvanceNoCapture); for every distribution in the paper the induced
// hazard error is below 1e-5.
const maxBeliefAges = 512

// hazardTable returns β_1..β_maxBeliefAges, every hazard a filter reads.
func hazardTable(d dist.Interarrival) []float64 {
	hz := make([]float64, maxBeliefAges)
	for j := range hz {
		hz[j] = d.Hazard(j + 1)
	}
	return hz
}

// NewBeliefFilter returns a filter initialized to a fresh capture
// (age 1 with certainty).
func NewBeliefFilter(d dist.Interarrival) *BeliefFilter {
	return newBeliefFilter(hazardTable(d))
}

// newBeliefFilter returns a fresh-capture filter over a hazard table. Both
// buffers hold the full age support plus the one-slot growth of an update,
// so updates never reallocate.
func newBeliefFilter(hz []float64) *BeliefFilter {
	f := &BeliefFilter{
		hz:      hz,
		b:       make([]float64, 1, maxBeliefAges+1),
		scratch: make([]float64, 0, maxBeliefAges+1),
	}
	f.b[0] = 1
	return f
}

// Clone returns an independent copy of the filter sharing the (read-only)
// hazard table with the original.
func (f *BeliefFilter) Clone() *BeliefFilter {
	out := newBeliefFilter(f.hz)
	out.copyFrom(f)
	return out
}

// copyFrom overwrites f with g's state, reusing f's buffers.
func (f *BeliefFilter) copyFrom(g *BeliefFilter) {
	f.hz = g.hz
	f.b = f.b[:len(g.b)]
	copy(f.b[g.lo:], g.b[g.lo:])
	f.lo = g.lo
	f.prob, f.probValid = g.prob, g.probValid
}

// Reset returns the filter to the fresh-capture state.
func (f *BeliefFilter) Reset() {
	f.b = f.b[:1]
	f.b[0] = 1
	f.lo = 0
	f.probValid = false
}

// dead reports that the posterior has no mass left. The state is
// absorbing for every activation c in [0, 1]: the hazard is 0, so an
// update keeps every age at zero and the f-chain's survival stays fixed.
func (f *BeliefFilter) dead() bool { return f.lo >= len(f.b) }

// EventProb returns β̂ = P(an event occurs in the current slot), the
// partial-information hazard of the paper's f-chain. The value is
// memoized until the belief changes. Plain summation suffices here: the
// belief has at most a few hundred entries in [0, 1].
func (f *BeliefFilter) EventProb() float64 {
	if f.probValid {
		return f.prob
	}
	var sum float64
	live := f.b[f.lo:]
	hz := f.hz[f.lo:]
	hz = hz[:len(live)]
	for j, w := range live {
		if w != 0 {
			sum += w * hz[j]
		}
	}
	if sum > 1 {
		sum = 1
	}
	if sum < 0 {
		sum = 0
	}
	f.prob = sum
	f.probValid = true
	return sum
}

// AdvanceNoCapture applies one slot of dynamics conditioned on "no
// capture" when the sensor activated with probability c. For c == 0 this
// is the unobserved prediction step; for c == 1 it conditions on the
// sensor having seen no event.
func (f *BeliefFilter) AdvanceNoCapture(c float64) {
	if c < 0 {
		c = 0
	}
	if c > 1 {
		c = 1
	}
	if f.dead() && !math.IsNaN(c) {
		return // absorbing; a NaN activation takes the general path below
	}
	hazard := f.EventProb()
	denom := 1 - c*hazard
	n, lo := len(f.b), f.lo
	next := f.scratch[:n+1]
	f.probValid = false
	if denom <= 1e-300 {
		// No-capture is (numerically) impossible: the event was certain
		// and the sensor active. Keep a defensive reset; callers treat
		// this path as probability ~0 anyway.
		f.scratch = f.b
		f.b = next[:1]
		f.b[0] = 1
		f.lo = 0
		return
	}
	inv := 1 / denom
	// A missed event restarts the age at 1. Without one the zero prefix
	// grows by a slot (the elder bucket below never moves).
	newLo := 0
	if miss := hazard * (1 - c) * inv; miss != 0 {
		next[0] = miss
		clear(next[1 : lo+1])
	} else {
		newLo = min(lo+1, maxBeliefAges-1)
	}
	hi := n
	if n == maxBeliefAges {
		hi = n - 1 // age maxBeliefAges stays put, below
	}
	src := f.b[lo:hi]
	hz, dst := f.hz[lo:hi], next[lo+1:hi+1] // age lo+1+k moves to lo+2+k
	hz, dst = hz[:len(src)], dst[:len(src)]
	for k, w := range src {
		if w == 0 {
			dst[k] = 0
			continue
		}
		dst[k] = w * (1 - hz[k]) * inv
	}
	if n == maxBeliefAges {
		// Absorbing elder bucket: heavy-tailed (DFR) distributions
		// keep non-negligible mass at arbitrarily old ages; folding
		// it at maxBeliefAges with that age's hazard biases β̂ by
		// O(mass(age>cap)·hazard(cap)) ≈ 1e-5 for Pareto(2,10),
		// while keeping updates O(cap).
		if lo == n-1 {
			next[n-1] = 0
		}
		if w := f.b[n-1]; w != 0 {
			next[n-1] += w * (1 - f.hz[n-1]) * inv
		}
		next = next[:maxBeliefAges]
	}
	// Trim the negligible old-age tail so long unobserved stretches stay
	// O(support) instead of O(elapsed slots). The cut-off is on the
	// trimmed mass of this step only (below 1e-14), and it is not
	// renormalized away: the update divides by 1 − cβ̂, not by the mass
	// that survives, so a deficit ε left by earlier trims grows to
	// ε/(1 − β̂) on every always-on step. On rapidly ageing (IFR) chains
	// the deficit compounds until nothing is left — on the Weibull(40,3)
	// chain (46, 46, 260, 1, 1, 0.8027…) the total mass is 0.109 at
	// f-state 380 and 0 by 414 — which the dead state absorbs.
	var tail float64
	end := len(next)
	for end > max(newLo, 1) {
		tail += next[end-1]
		if tail >= 1e-14 {
			break
		}
		end--
	}
	f.scratch = f.b
	if end == newLo {
		// Every live age was trimmed.
		f.b = next[:1]
		f.lo = 1
		return
	}
	for newLo < end && next[newLo] == 0 {
		newLo++
	}
	f.b = next[:end]
	f.lo = newLo
}

// Belief returns a copy of the posterior over ages (index j-1 holds
// P(age == j)).
func (f *BeliefFilter) Belief() []float64 {
	out := make([]float64, len(f.b))
	copy(out[f.lo:], f.b[f.lo:])
	return out
}

// TotalMass returns the posterior's total probability mass (1 up to
// roundoff and the trimming deficit described in AdvanceNoCapture);
// exported for invariant tests.
func (f *BeliefFilter) TotalMass() float64 {
	return numeric.Sum(f.b[f.lo:])
}
