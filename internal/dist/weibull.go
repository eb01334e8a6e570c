package dist

import (
	"fmt"
	"math"

	"eventcap/internal/rng"
)

// Weibull is the slotted discretization of the Weibull distribution
// W(η1, η2) with scale η1 and shape η2, the paper's primary workload
// (Fig. 3, 4(a), 6 use W(40, 3)). Shape > 1 gives an increasing hazard —
// the "hot region" structure the clustering policy exploits.
type Weibull struct {
	scale, shape float64
	mean         float64
	name         string
}

var _ Interarrival = (*Weibull)(nil)

// NewWeibull constructs W(scale, shape). Both parameters must be positive.
func NewWeibull(scale, shape float64) (*Weibull, error) {
	if !(scale > 0) || !(shape > 0) {
		return nil, fmt.Errorf("dist: Weibull parameters must be positive, got (%g, %g)", scale, shape)
	}
	w := &Weibull{
		scale: scale,
		shape: shape,
		name:  fmt.Sprintf("Weibull(%g,%g)", scale, shape),
	}
	w.mean = meanFromSurvival(w.CDF, 1<<22)
	return w, nil
}

func (w *Weibull) continuousCDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(x/w.scale, w.shape))
}

// CDF returns F(i) of the discretized distribution.
func (w *Weibull) CDF(i int) float64 {
	if i < 1 {
		return 0
	}
	return w.continuousCDF(float64(i))
}

// PMF returns α_i = F(i) − F(i−1).
func (w *Weibull) PMF(i int) float64 {
	if i < 1 {
		return 0
	}
	// Difference of survivals is better conditioned in the far tail than
	// difference of CDFs.
	si := math.Exp(-math.Pow(float64(i)/w.scale, w.shape))
	sim1 := 1.0
	if i > 1 {
		sim1 = math.Exp(-math.Pow(float64(i-1)/w.scale, w.shape))
	}
	return sim1 - si
}

// Hazard returns β_i.
func (w *Weibull) Hazard(i int) float64 {
	if i < 1 {
		return 0
	}
	// β_i = 1 − S(i)/S(i−1) computed in log space for stability.
	expI := math.Pow(float64(i)/w.scale, w.shape)
	expIm1 := 0.0
	if i > 1 {
		expIm1 = math.Pow(float64(i-1)/w.scale, w.shape)
	}
	return 1 - math.Exp(expIm1-expI)
}

// Mean returns μ of the discretized distribution.
func (w *Weibull) Mean() float64 { return w.mean }

// Sample draws an inter-arrival time via inversion: ceil(η1·(−ln u)^(1/η2)).
func (w *Weibull) Sample(src *rng.Source) int {
	return w.SampleU(src.Float64())
}

// SampleU implements InverseSampler: the deterministic u → gap map behind
// Sample. −log1p(−u) and the power are both nondecreasing in u, so the
// map satisfies the InverseSampler monotonicity contract.
func (w *Weibull) SampleU(u float64) int {
	return ceilGap(w.scale * math.Pow(-math.Log1p(-u), 1/w.shape))
}

var _ InverseSampler = (*Weibull)(nil)

// Name implements Interarrival.
func (w *Weibull) Name() string { return w.name }

// CacheKey implements Keyed; the name embeds both parameters at
// round-trip precision.
func (w *Weibull) CacheKey() string { return w.name }
