// Package stats provides the statistical machinery used to validate the
// simulator and to attach uncertainty to measured QoM values: descriptive
// statistics, streaming batch-means confidence intervals for dependent
// time series (simulation output is autocorrelated, so naive CIs would be
// too tight), and a chi-square goodness-of-fit test used by the sampler
// tests.
package stats

import (
	"fmt"
	"math"

	"eventcap/internal/numeric"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1)
	Min, Max float64
}

// Summarize computes descriptive statistics. An empty sample yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	var sum numeric.KahanSum
	minV, maxV := xs[0], xs[0]
	for _, x := range xs {
		sum.Add(x)
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
	}
	mean := sum.Value() / float64(len(xs))
	var ss numeric.KahanSum
	for _, x := range xs {
		d := x - mean
		ss.Add(d * d)
	}
	variance := 0.0
	if len(xs) > 1 {
		variance = ss.Value() / float64(len(xs)-1)
	}
	return Summary{N: len(xs), Mean: mean, Variance: variance, Min: minV, Max: maxV}
}

// StdDev returns the sample standard deviation.
func (s Summary) StdDev() float64 { return math.Sqrt(s.Variance) }

// StdErr returns the standard error of the mean.
func (s Summary) StdErr() float64 {
	if s.N == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.N))
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
	Level  float64 // e.g. 0.95
}

// MeanCI returns the normal-approximation confidence interval for the
// mean of an i.i.d. sample at the given level (0 < level < 1).
func MeanCI(xs []float64, level float64) (Interval, error) {
	if len(xs) < 2 {
		return Interval{}, fmt.Errorf("stats: need at least 2 observations, got %d", len(xs))
	}
	if !(level > 0 && level < 1) {
		return Interval{}, fmt.Errorf("stats: confidence level must be in (0,1), got %g", level)
	}
	s := Summarize(xs)
	z := NormalQuantile(0.5 + level/2)
	h := z * s.StdErr()
	return Interval{Lo: s.Mean - h, Hi: s.Mean + h, Level: level}, nil
}

// NormalQuantile returns Φ⁻¹(p) for p in (0, 1), using the
// Beasley-Springer-Moro rational approximation (absolute error < 3e-9 —
// ample for confidence intervals).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	// Coefficients of the BSM algorithm.
	a := [4]float64{2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637}
	b := [4]float64{-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833}
	c := [9]float64{
		0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
		0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
		0.0000321767881768, 0.0000002888167364, 0.0000003960315187,
	}
	y := p - 0.5
	if math.Abs(y) < 0.42 {
		r := y * y
		num := y * (((a[3]*r+a[2])*r+a[1])*r + a[0])
		den := (((b[3]*r+b[2])*r+b[1])*r+b[0])*r + 1
		return num / den
	}
	r := p
	if y > 0 {
		r = 1 - p
	}
	r = math.Log(-math.Log(r))
	x := c[0]
	pow := 1.0
	for i := 1; i < 9; i++ {
		pow *= r
		x += c[i] * pow
	}
	if y < 0 {
		return -x
	}
	return x
}

// ChiSquare runs a chi-square goodness-of-fit test of observed counts
// against expected probabilities (which must sum to ~1). Cells with
// expected count below 5 are pooled into their neighbor to keep the
// approximation valid. It returns the statistic, the degrees of freedom,
// and whether the null hypothesis survives at the 0.01 significance level
// (via the Wilson-Hilferty approximation of the chi-square quantile).
func ChiSquare(observed []int64, probs []float64) (stat float64, dof int, ok bool, err error) {
	if len(observed) != len(probs) {
		return 0, 0, false, fmt.Errorf("stats: %d observed cells but %d probabilities", len(observed), len(probs))
	}
	if len(observed) < 2 {
		return 0, 0, false, fmt.Errorf("stats: need at least 2 cells")
	}
	var total int64
	for _, o := range observed {
		if o < 0 {
			return 0, 0, false, fmt.Errorf("stats: negative count %d", o)
		}
		total += o
	}
	if total == 0 {
		return 0, 0, false, fmt.Errorf("stats: empty sample")
	}
	psum := numeric.Sum(probs)
	if math.Abs(psum-1) > 1e-6 {
		return 0, 0, false, fmt.Errorf("stats: probabilities sum to %g", psum)
	}

	// Pool consecutive cells until each pooled cell reaches expected
	// count 5; a small final remainder merges backward.
	type cell struct {
		obs int64
		exp float64
	}
	var cells []cell
	var cur cell
	for i := range observed {
		cur.obs += observed[i]
		cur.exp += probs[i] * float64(total)
		if cur.exp >= 5 {
			cells = append(cells, cur)
			cur = cell{}
		}
	}
	if cur.exp > 0 {
		if n := len(cells); n > 0 {
			cells[n-1].obs += cur.obs
			cells[n-1].exp += cur.exp
		} else {
			cells = append(cells, cur)
		}
	}
	if len(cells) < 2 {
		return 0, 0, false, fmt.Errorf("stats: too few cells after pooling")
	}
	var s numeric.KahanSum
	for _, c := range cells {
		if c.exp <= 0 {
			continue
		}
		d := float64(c.obs) - c.exp
		s.Add(d * d / c.exp)
	}
	stat = s.Value()
	dof = len(cells) - 1
	crit := chiSquareQuantile99(dof)
	return stat, dof, stat <= crit, nil
}

// chiSquareQuantile99 approximates the 0.99 quantile of chi-square with
// k degrees of freedom (Wilson–Hilferty).
func chiSquareQuantile99(k int) float64 {
	z := NormalQuantile(0.99)
	kf := float64(k)
	t := 1 - 2/(9*kf) + z*math.Sqrt(2/(9*kf))
	return kf * t * t * t
}
