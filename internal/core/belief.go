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
// nor read: AdvanceNoCapture runs over b[lo:], performing exactly the
// operations, in exactly the order, of a walk over the whole array that
// skips zero entries.
//
// Each update makes one pass over the live ages. The pass that shifts
// them also sums the new posterior's mass and its Σ b(j)β_j, so the next
// slot's β̂ is ready when the pass ends and EventProb is a field read.
// The stored ages sum to mass, which is 1 up to the last step's tail trim
// and roundoff; the next update divides by it together with 1 − cβ̂, so
// the posterior is renormalized every step without a pass of its own.
//
// An update that leaves a single live age unchanged bit for bit has
// reached a fixed point: the always-on recovery tail of a heavy-tailed
// law parks in the elder bucket, where c = 1 maps the belief to itself
// for thousands of slots. The filter remembers that, and a repeat of the
// same activation returns at once. The filter counts the updates that
// ran, for core.pi.belief_steps.
type BeliefFilter struct {
	hz []float64 // hz[j-1] = β_j for j = 1..maxBeliefAges; read-only
	b  []float64 // b[j-1] = mass·P(age == j) for j > lo; b[:lo] is stale
	lo int       // ages 1..lo have zero probability; lo < len(b)

	mass float64 // Σ b[lo:]
	prob float64 // β̂ = Σ b(j)β_j / mass, clamped to [0, 1]

	scratch []float64 // reused buffer for updates

	// parked reports that the last update left its single live age, lo,
	// len(b), mass and prob unchanged bit for bit; parkedC holds the bits
	// of that update's clamped activation. Repeating it is a no-op.
	parked  bool
	parkedC uint64

	steps int64 // updates run since the filter was built, parked repeats excluded
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

// hazardTableMean returns the mean of the law a filter over hz models:
// hazard β_j at ages below maxBeliefAges and β_maxBeliefAges at every
// older age (the elder bucket). With S_j the survival after j slots,
// that is Σ_{j<maxBeliefAges} S_j + S_maxBeliefAges/β_maxBeliefAges. For
// heavy tails it is below d.Mean(), which is the mean of the untruncated
// law. The tail term is dropped when the last hazard is 0 and the
// modelled law has no finite mean.
func hazardTableMean(hz []float64) float64 {
	var mean numeric.KahanSum
	surv := 1.0
	for _, h := range hz {
		mean.Add(surv)
		surv *= 1 - h
	}
	if last := hz[len(hz)-1]; surv > 0 && last > 0 {
		mean.Add(surv / last)
	}
	return mean.Value()
}

// ageTail is the future of age j under a sensor that is on in every
// slot: never, the probability that no event ever comes, and life, the
// expected number of slots, this one included, to the next event over
// the paths that reach one (E[T; T < ∞]).
type ageTail struct{ life, never float64 }

// residualLifeTable returns the ageTail of ages 1..maxBeliefAges for a
// filter over hz. With the sensor always on, no missed event resets the
// age, so with N_j = never and R_j = life:
//
//	N_j = (1 − β_j)·N_{j+1},   R_j = (1 − N_j) + (1 − β_j)·R_{j+1},
//
// and the elder bucket, which keeps its hazard, waits geometrically:
// R = 1/β, N = 0 (R = 0, N = 1 when β = 0). A renewing law has N ≡ 0,
// R_j = 1 + (1 − β_j)·R_{j+1}, and R_j = 1 wherever β_j = 1. N_j is 1
// exactly when the hazard is 0 from age j through the elder bucket.
func residualLifeTable(hz []float64) []ageTail {
	r := make([]ageTail, len(hz))
	last := len(hz) - 1
	if h := hz[last]; h > 0 {
		r[last] = ageTail{life: 1 / min(h, 1)}
	} else {
		r[last] = ageTail{never: 1}
	}
	for j := last - 1; j >= 0; j-- {
		stay := 1 - min(hz[j], 1)
		never := stay * r[j+1].never
		r[j] = ageTail{life: (1 - never) + stay*r[j+1].life, never: never}
	}
	return r
}

// residualLife returns the posterior means of life and never (a
// residualLifeTable) in one pass over the live ages.
func (f *BeliefFilter) residualLife(tails []ageTail) (life, never float64) {
	for k, w := range f.b[f.lo:] {
		t := tails[f.lo+k]
		life += w * t.life
		never += w * t.never
	}
	return life / f.mass, never / f.mass
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
	f.Reset()
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
	f.mass, f.prob = g.mass, g.prob
	f.parked, f.parkedC = g.parked, g.parkedC
}

// Reset returns the filter to the fresh-capture state.
func (f *BeliefFilter) Reset() {
	f.b = f.b[:1]
	f.b[0] = 1
	f.lo = 0
	f.mass = 1
	f.prob = f.hz[0]
	f.parked = false
}

// EventProb returns β̂ = P(an event occurs in the current slot), the
// partial-information hazard of the paper's f-chain. The update that
// produced the current belief computed it.
func (f *BeliefFilter) EventProb() float64 { return f.prob }

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
	cBits := math.Float64bits(c)
	if f.parked && cBits == f.parkedC {
		return // the belief is a fixed point of this update
	}
	f.steps++
	hazard := f.prob
	denom := 1 - c*hazard
	n, lo := len(f.b), f.lo
	// The state a parked update must reproduce: one live age, its
	// weight, mass and β̂ (b[lo] exists since lo < n).
	single, oldW, oldMass, oldProb := lo == n-1, f.b[lo], f.mass, f.prob
	next := f.scratch[:n+1]
	if denom <= 1e-300 {
		// No-capture is (numerically) impossible: the event was certain
		// and the sensor active. Keep a defensive reset; callers treat
		// this path as probability ~0 anyway.
		f.scratch, f.b = f.b, next
		f.Reset()
		return
	}
	inv := 1 / denom
	miss := hazard * (1 - c) * inv
	inv /= f.mass // the stored ages sum to mass, not 1
	// mass and event accumulate Σ b'(j) and Σ b'(j)β_j of the new
	// posterior, one term per contribution, in the order they are made.
	mass, event := miss, miss*f.hz[0]
	// A missed event restarts the age at 1. Without one the zero prefix
	// grows by a slot (the elder bucket below never moves).
	newLo := 0
	if miss != 0 {
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
	hz, dst := f.hz[lo:hi+1], next[lo+1:hi+1] // age lo+1+k moves to lo+2+k
	hz, dst = hz[:len(src)+1], dst[:len(src)]
	for k, w := range src {
		if w == 0 {
			dst[k] = 0
			continue
		}
		v := w * (1 - hz[k]) * inv
		dst[k] = v
		mass += v
		event += v * hz[k+1]
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
			v := w * (1 - f.hz[n-1]) * inv
			next[n-1] += v
			mass += v
			event += v * f.hz[n-1]
		}
		next = next[:maxBeliefAges]
	}
	// Trim the negligible old-age tail so long unobserved stretches stay
	// O(support) instead of O(elapsed slots): drop the oldest ages while
	// their total stays below 1e-14, and take them out of both sums. The
	// next update divides by the mass that is left, so the trims never
	// add up: after every step the posterior sums to 1 up to that step's
	// trim and the roundoff of 1 − cβ̂.
	var tail, tailEvent float64
	end := len(next)
	for end > max(newLo, 1) {
		w := next[end-1]
		if tail+w >= 1e-14 {
			break
		}
		tail += w
		tailEvent += w * f.hz[end-1]
		end--
	}
	f.scratch, f.b = f.b, next
	if end == newLo {
		// Every live age was trimmed: the ages summed to less than
		// 1e-14, which only the roundoff of 1 − cβ̂ at β̂ ≈ 1 and c = 1
		// produces. No-capture is then as impossible as above.
		f.Reset()
		return
	}
	for newLo < end && next[newLo] == 0 {
		newLo++
	}
	f.b = next[:end]
	f.lo = newLo
	f.mass = mass - tail
	// min and max keep a NaN: a NaN activation leaves a NaN belief
	// until the next Reset.
	f.prob = min(max((event-tailEvent)/f.mass, 0), 1)
	f.parked = single && newLo == lo && end == n &&
		math.Float64bits(next[lo]) == math.Float64bits(oldW) &&
		math.Float64bits(f.mass) == math.Float64bits(oldMass) &&
		math.Float64bits(f.prob) == math.Float64bits(oldProb)
	f.parkedC = cBits
}

// Belief returns a copy of the posterior over ages (index j-1 holds
// P(age == j)).
func (f *BeliefFilter) Belief() []float64 {
	out := make([]float64, len(f.b))
	copy(out[f.lo:], f.b[f.lo:])
	return out
}

// TotalMass returns the posterior's total probability mass (1 up to
// roundoff and the last step's tail trim, see AdvanceNoCapture);
// exported for invariant tests.
func (f *BeliefFilter) TotalMass() float64 {
	return numeric.Sum(f.b[f.lo:])
}
