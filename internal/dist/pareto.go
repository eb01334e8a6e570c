package dist

import (
	"fmt"
	"math"

	"eventcap/internal/rng"
)

// Pareto is the slotted discretization of the Pareto distribution
// P(γ1, γ2) with tail index γ1 and minimum γ2 (the paper's Fig. 4(b) uses
// P(2, 10)). Its hazard decreases with slot number, the mirror image of
// the Weibull case: the hot region sits immediately after the minimum.
type Pareto struct {
	alpha, xm float64
	mean      float64
	name      string
}

var _ Interarrival = (*Pareto)(nil)

// NewPareto constructs P(alpha, xm). alpha must exceed 1 for the mean to
// exist; xm must be positive.
func NewPareto(alpha, xm float64) (*Pareto, error) {
	if !(alpha > 1) {
		return nil, fmt.Errorf("dist: Pareto tail index must exceed 1 for a finite mean, got %g", alpha)
	}
	if !(xm > 0) {
		return nil, fmt.Errorf("dist: Pareto minimum must be positive, got %g", xm)
	}
	p := &Pareto{
		alpha: alpha,
		xm:    xm,
		name:  fmt.Sprintf("Pareto(%g,%g)", alpha, xm),
	}
	p.mean = p.discreteMean()
	return p, nil
}

func (p *Pareto) survivalCont(x float64) float64 {
	if x <= p.xm {
		return 1
	}
	return math.Pow(p.xm/x, p.alpha)
}

// CDF returns F(i) of the discretized distribution.
func (p *Pareto) CDF(i int) float64 {
	if i < 1 {
		return 0
	}
	return 1 - p.survivalCont(float64(i))
}

// PMF returns α_i = S(i−1) − S(i).
func (p *Pareto) PMF(i int) float64 {
	if i < 1 {
		return 0
	}
	v := p.survivalCont(float64(i-1)) - p.survivalCont(float64(i))
	if v < 0 {
		return 0
	}
	return v
}

// Hazard returns β_i = 1 − S(i)/S(i−1).
func (p *Pareto) Hazard(i int) float64 {
	if i < 1 {
		return 0
	}
	sPrev := p.survivalCont(float64(i - 1))
	if sPrev <= 0 {
		return 0
	}
	return 1 - p.survivalCont(float64(i))/sPrev
}

// Mean returns μ of the discretized distribution.
func (p *Pareto) Mean() float64 { return p.mean }

// discreteMean computes Σ_{j>=0}(1−F(j)) with an Euler–Maclaurin tail
// correction, since the raw series converges only polynomially.
func (p *Pareto) discreteMean() float64 {
	// Sum explicitly to J, then add the analytic tail Σ_{j>=J}(xm/j)^α.
	const J = 100000
	sum := 0.0
	j := 0
	for ; j < J; j++ {
		s := p.survivalCont(float64(j))
		sum += s
	}
	return sum + p.tailSurvivalSum(float64(J))
}

// tailSurvivalSum approximates Σ_{j>=J} (xm/j)^α via Euler–Maclaurin:
// ∫_J^∞ f + f(J)/2 − f'(J)/12, with f(x) = (xm/x)^α.
func (p *Pareto) tailSurvivalSum(from float64) float64 {
	a, xm := p.alpha, p.xm
	f := math.Pow(xm/from, a)
	integral := f * from / (a - 1)
	deriv := -a * f / from
	return integral + f/2 - deriv/12
}

// SurvivalSumFrom returns Σ_{j>=from} (1 − F(j)) — the expected residual
// activation cost of an always-on tail starting at slot from+1. It is
// exact for from below the minimum and uses the Euler–Maclaurin tail
// beyond a fixed horizon.
func (p *Pareto) SurvivalSumFrom(from int) float64 {
	if from < 0 {
		from = 0
	}
	const horizon = 100000
	sum := 0.0
	j := from
	for ; j < horizon; j++ {
		sum += p.survivalCont(float64(j))
	}
	return sum + p.tailSurvivalSum(float64(j))
}

// Sample draws by inversion: ceil(xm / (1−u)^{1/α}).
func (p *Pareto) Sample(src *rng.Source) int {
	return p.SampleU(src.Float64())
}

// SampleU implements InverseSampler: the deterministic u → gap map behind
// Sample. (1−u)^{1/α} is decreasing in u, so the quotient — and the map —
// is nondecreasing, as the InverseSampler contract requires.
func (p *Pareto) SampleU(u float64) int {
	return ceilGap(p.xm / math.Pow(1-u, 1/p.alpha))
}

var _ InverseSampler = (*Pareto)(nil)

// Name implements Interarrival.
func (p *Pareto) Name() string { return p.name }

// CacheKey implements Keyed; the name embeds both parameters at
// round-trip precision.
func (p *Pareto) CacheKey() string { return p.name }
