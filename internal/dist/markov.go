package dist

import (
	"fmt"
	"math"

	"eventcap/internal/rng"
)

// MarkovRenewal is the renewal process induced by a two-state Markov
// event chain with a = P(event in t | event in t−1) and
// b = P(no event in t | no event in t−1) — the model of Jaggi, Kar and
// Krishnamurthy [6] that the paper compares against in Fig. 5. Measuring
// X as the gap between consecutive events:
//
//	P(X = 1) = a
//	P(X = k) = (1−a)·b^(k−2)·(1−b),  k >= 2
//
// so the hazard is β_1 = a and β_k = 1−b for k >= 2. The paper's
// transformation (Section VI-A2) is exactly this construction.
type MarkovRenewal struct {
	a, b float64
	logB float64 // math.Log(b), the divisor of every geometric run draw
	name string
}

var _ Interarrival = (*MarkovRenewal)(nil)

// NewMarkovRenewal constructs the renewal view of the chain (a, b).
// Requires a in (0, 1] and b in [0, 1).
func NewMarkovRenewal(a, b float64) (*MarkovRenewal, error) {
	if !(a > 0) || a > 1 {
		return nil, fmt.Errorf("dist: Markov a must be in (0,1], got %g", a)
	}
	if b < 0 || b >= 1 {
		return nil, fmt.Errorf("dist: Markov b must be in [0,1), got %g", b)
	}
	return &MarkovRenewal{a: a, b: b, logB: math.Log(b), name: fmt.Sprintf("MarkovRenewal(a=%g,b=%g)", a, b)}, nil
}

// A returns P(event | event last slot).
func (m *MarkovRenewal) A() float64 { return m.a }

// B returns P(no event | no event last slot).
func (m *MarkovRenewal) B() float64 { return m.b }

// PMF implements Interarrival.
func (m *MarkovRenewal) PMF(i int) float64 {
	switch {
	case i < 1:
		return 0
	case i == 1:
		return m.a
	default:
		return (1 - m.a) * math.Pow(m.b, float64(i-2)) * (1 - m.b)
	}
}

// CDF implements Interarrival. 1 − F(i) = (1−a)·b^(i−1) for i >= 1.
func (m *MarkovRenewal) CDF(i int) float64 {
	if i < 1 {
		return 0
	}
	return 1 - (1-m.a)*math.Pow(m.b, float64(i-1))
}

// Hazard implements Interarrival: a for slot 1, 1−b afterwards.
func (m *MarkovRenewal) Hazard(i int) float64 {
	switch {
	case i < 1:
		return 0
	case i == 1:
		return m.a
	default:
		return 1 - m.b
	}
}

// Mean returns a + (1−a)(2−b)/(1−b).
func (m *MarkovRenewal) Mean() float64 {
	return m.a + (1-m.a)*(2-m.b)/(1-m.b)
}

// Sample implements Interarrival: Bernoulli(a) for a gap of one slot,
// otherwise 1 + a geometric(1−b) run of event-free slots.
func (m *MarkovRenewal) Sample(src *rng.Source) int {
	if src.Bernoulli(m.a) {
		return 1
	}
	if m.b == 0 {
		return 2
	}
	u := src.Float64()
	run := int(math.Ceil(math.Log1p(-u) / m.logB))
	if run < 1 {
		run = 1
	}
	return 1 + run
}

// Name implements Interarrival.
func (m *MarkovRenewal) Name() string { return m.name }

// CacheKey implements Keyed; the name embeds both chain parameters at
// round-trip precision.
func (m *MarkovRenewal) CacheKey() string { return m.name }
