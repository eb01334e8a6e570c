package dist

import (
	"math"
	"sort"

	"eventcap/internal/rng"
)

// BinomialTable samples Binomial(n, p) for a fixed p and any n up to a
// precomputed bound with a single uniform draw and a binary search — no
// logarithms in the hot path. The simulation kernel prepares one per
// compiled plan and recharge probability, read by every sensor of the
// plan: sleep-run lengths repeat heavily and stay small, so the O(maxN²)
// table build (a few microseconds) amortizes across tens of thousands of
// draws that would otherwise each pay SampleBinomial's geometric-gap or
// mode-inversion transcendentals. Values of n beyond the bound fall back
// to SampleBinomial.
type BinomialTable struct {
	p float64
	// cum[n-1][k] = P(X <= k) for X ~ Binomial(n, p); the last entry is
	// pinned to 1 so a uniform in [0,1) can never search past the support.
	cum [][]float64
}

// NewBinomialTable builds the table for success probability p (clamped to
// [0, 1]) covering 1 <= n <= maxN. Degenerate p needs no randomness, so
// the table stays empty and Sample short-circuits.
func NewBinomialTable(p float64, maxN int) *BinomialTable {
	t := &BinomialTable{p: p}
	if maxN < 1 || !(p > 0) || p >= 1 || math.IsNaN(p) {
		return t
	}
	q := 1 - p
	ratio := p / q
	logP, logQ := math.Log(p), math.Log(q)
	t.cum = make([][]float64, maxN)
	for n := 1; n <= maxN; n++ {
		// PMF seeded at the mode via log-gamma, extended outward by the
		// exact ratio recurrences f(k+1) = f(k)·(n-k)/(k+1)·p/q. Seeding
		// at k = 0 with q^n looks simpler but underflows to an all-zero
		// row once n·log(q) < -745 (for p = 0.857 that is n > 383),
		// which silently turns every draw into n successes; the modal
		// mass is at least 1/(n+1) and can never underflow. The row
		// holds the PMF, then turns into its running sum in place.
		row := make([]float64, n+1)
		mode := int(math.Floor(float64(n+1) * p))
		if mode > n {
			mode = n
		}
		lgN, _ := math.Lgamma(float64(n + 1))
		lgM, _ := math.Lgamma(float64(mode + 1))
		lgNM, _ := math.Lgamma(float64(n - mode + 1))
		row[mode] = math.Exp(lgN - lgM - lgNM + float64(mode)*logP + float64(n-mode)*logQ)
		for k := mode; k < n; k++ {
			row[k+1] = row[k] * float64(n-k) / float64(k+1) * ratio
		}
		for k := mode; k > 0; k-- {
			row[k-1] = row[k] * float64(k) / (float64(n-k+1) * ratio)
		}
		var acc float64
		for k := range row {
			acc += row[k]
			row[k] = acc
		}
		row[n] = 1
		t.cum[n-1] = row
	}
	return t
}

// P returns the success probability the table was built for.
func (t *BinomialTable) P() float64 { return t.p }

// MaxN returns the largest n the table covers directly.
func (t *BinomialTable) MaxN() int { return len(t.cum) }

// Sample draws Binomial(n, p). Within the precomputed range it consumes
// exactly one uniform; beyond it, it delegates to SampleBinomial.
func (t *BinomialTable) Sample(src *rng.Source, n int64) int64 {
	if n <= 0 {
		return 0
	}
	if !(t.p > 0) {
		return 0
	}
	if t.p >= 1 {
		return n
	}
	if n <= int64(len(t.cum)) {
		row := t.cum[n-1]
		u := src.Float64()
		return int64(sort.SearchFloat64s(row, u))
	}
	return SampleBinomial(src, n, t.p)
}
