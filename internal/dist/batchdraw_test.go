package dist

import (
	"math"
	"testing"

	"eventcap/internal/rng"
)

// TestSampleBernoulliBatchBasics pins the deterministic invariants on a
// few fixed inputs (the fuzz target below explores the space).
func TestSampleBernoulliBatchBasics(t *testing.T) {
	out := make([]bool, 64)
	if k := SampleBernoulliBatch(rng.New(1, 1), 0, out); k != 0 {
		t.Errorf("p=0 produced %d successes", k)
	}
	for i, v := range out {
		if v {
			t.Fatalf("p=0 left position %d set", i)
		}
	}
	if k := SampleBernoulliBatch(rng.New(1, 1), 1, out); k != 64 {
		t.Errorf("p=1 produced %d successes, want 64", k)
	}
	for i, v := range out {
		if !v {
			t.Fatalf("p=1 left position %d clear", i)
		}
	}
	if k := SampleBernoulliBatch(rng.New(1, 1), 0.5, nil); k != 0 {
		t.Errorf("empty batch produced %d successes", k)
	}
}

// FuzzSampleBernoulliBatch is the batch-vs-sequential equivalence
// harness: a batched draw must be a pure function of the source state,
// internally consistent (returned count == set positions), and
// distributed like len(out) independent per-slot Bernoulli draws — the
// count mean must track n·p as tightly as a sequential per-slot sampler's
// does, and each position must be hit with frequency p (exchangeability:
// Floyd's assignment cannot favor any slot). Every input is
// deterministic, so a bound violation is a sampler bug, not flake.
func FuzzSampleBernoulliBatch(f *testing.F) {
	f.Add(uint64(1), 16, 0.3)
	f.Add(uint64(2), 1, 0.5)
	f.Add(uint64(3), 64, 0.001) // near-empty subsets
	f.Add(uint64(4), 64, 0.999) // near-full subsets
	f.Add(uint64(5), 48, 0.0)   // degenerate p = 0
	f.Add(uint64(6), 48, 1.0)   // degenerate p = 1
	f.Add(uint64(7), 0, 0.5)    // empty batch
	f.Add(uint64(8), 32, math.NaN())
	f.Add(uint64(9), 2048, 0.25) // count via mode inversion
	// One hit in 512 draws at a rare p: a 12-sigma band on the hit
	// frequency called this a drift.
	f.Add(uint64(90), -21, 2.9064360119047617e-06)
	f.Fuzz(func(t *testing.T, seed uint64, n int, p float64) {
		if n < 0 {
			n = -n
		}
		n %= 1 << 12

		out := make([]bool, n)
		k := SampleBernoulliBatch(rng.New(seed, 0xba7c), p, out)
		redo := make([]bool, n)
		k2 := SampleBernoulliBatch(rng.New(seed, 0xba7c), p, redo)
		if k != k2 {
			t.Fatalf("count not deterministic: %d vs %d", k, k2)
		}
		var pop int64
		for i := range out {
			if out[i] != redo[i] {
				t.Fatalf("assignment not deterministic at position %d", i)
			}
			if out[i] {
				pop++
			}
		}
		if pop != k {
			t.Fatalf("returned count %d but %d positions set", k, pop)
		}
		if k < 0 || k > int64(n) {
			t.Fatalf("count %d outside [0, %d]", k, n)
		}
		switch {
		case n == 0 || p <= 0 || math.IsNaN(p):
			if k != 0 {
				t.Fatalf("degenerate (n=%d, p=%g) must yield 0, got %d", n, p, k)
			}
		case p >= 1:
			if k != int64(n) {
				t.Fatalf("sure success (n=%d, p=%g) must yield n, got %d", n, p, k)
			}
		}

		if !(p > 0) || p >= 1 || n < 1 || n > 256 {
			return
		}

		// Table-backed variant: same invariants through BinomialTable.
		tbl := NewBinomialTable(p, n)
		tblOut := make([]bool, n)
		tk := tbl.SampleBatch(rng.New(seed, 0x7ab1e), tblOut)
		var tpop int64
		for _, v := range tblOut {
			if v {
				tpop++
			}
		}
		if tpop != tk || tk < 0 || tk > int64(n) {
			t.Fatalf("table batch inconsistent: count %d, %d set", tk, tpop)
		}

		if n > 64 {
			return
		}

		// Moment equivalence, batch vs sequential: across m rounds the
		// batch count total and the per-slot sequential total must both
		// be plausible draws of Binomial(m·n, p), and every position's
		// hit count a plausible draw of Binomial(m, p). "Plausible" is the
		// central range that leaves at most binomialTail in each tail of
		// the exact law; a 12-sigma CLT band stands in for the totals
		// only when both m·n·p and m·n·(1−p) are large, where it is the
		// wider of the two.
		const m = 512
		var sumBatch, sumSeq float64
		hits := make([]float64, n)
		bSrc := rng.New(seed, 0x5a)
		sSrc := rng.New(seed, 0x7b)
		for i := 0; i < m; i++ {
			c := SampleBernoulliBatch(bSrc, p, out)
			sumBatch += float64(c)
			for j := range out {
				if out[j] {
					hits[j]++
				}
			}
			var seq int64
			for j := 0; j < n; j++ {
				if sSrc.Bernoulli(p) {
					seq++
				}
			}
			sumSeq += float64(seq)
		}
		if lo, hi, ok := smallMeanBinomialBand(m*n, p, binomialTail); ok {
			for _, total := range []struct {
				name string
				sum  float64
			}{{"batch", sumBatch}, {"sequential", sumSeq}} {
				if total.sum < float64(lo) || total.sum > float64(hi) {
					t.Fatalf("%s count total %g outside the exact Binomial(%d, %g) band [%d, %d]", total.name, total.sum, m*n, p, lo, hi)
				}
			}
		} else {
			mean := float64(n) * p
			sigma := math.Sqrt(float64(n) * p * (1 - p))
			tol := 12*sigma/math.Sqrt(m) + 1e-9
			if d := math.Abs(sumBatch/m - mean); d > tol {
				t.Fatalf("batch count mean drifted: |%g - %g| = %g > %g (n=%d, p=%g)", sumBatch/m, mean, d, tol, n, p)
			}
			if d := math.Abs(sumSeq/m - mean); d > tol {
				t.Fatalf("sequential mean drifted: |%g - %g| = %g > %g (n=%d, p=%g)", sumSeq/m, mean, d, tol, n, p)
			}
		}
		posLo, posHi := binomialBand(NewBinomialTable(p, m).cum[m-1], binomialTail)
		for j, h := range hits {
			if h < float64(posLo) || h > float64(posHi) {
				t.Fatalf("position %d hit count %g outside the exact Binomial(%d, %g) band [%d, %d] (n=%d)", j, h, m, p, posLo, posHi, n)
			}
		}
	})
}

// binomialTail is the probability the moment checks of
// FuzzSampleBernoulliBatch leave in each tail of the exact law: small
// enough that a correct sampler never trips them over a fuzzing run.
const binomialTail = 1e-12

// binomialBand returns the range [lo, hi] outside which a binomial
// variable with CDF row cdf (cdf[k] = P(X ≤ k)) falls with probability at
// most tail on each side: P(X < lo) ≤ tail and P(X > hi) ≤ tail.
func binomialBand(cdf []float64, tail float64) (lo, hi int) {
	for lo < len(cdf)-1 && cdf[lo] <= tail {
		lo++
	}
	hi = len(cdf) - 1
	for hi > 0 && 1-cdf[hi-1] <= tail {
		hi--
	}
	return lo, hi
}

// smallMeanBinomialBand is binomialBand for Binomial(n, p) when the
// rarer outcome is expected at most 30 times, so its count starts at
// P(0) = (1−p')^n ≥ e^-31 with p' = min(p, 1−p) and the pmf recurrence
// upward cannot underflow. It reports false otherwise.
func smallMeanBinomialBand(n int, p, tail float64) (lo, hi int, ok bool) {
	q, mirror := p, p > 0.5
	if mirror {
		q = 1 - p
	}
	if float64(n)*q > 30 {
		return 0, 0, false
	}
	pmf := math.Exp(float64(n) * math.Log1p(-q))
	cdf := pmf
	k := 0
	step := func() {
		pmf *= float64(n-k) / float64(k+1) * q / (1 - q)
		k++
		cdf += pmf
	}
	for cdf <= tail && k < n {
		step()
	}
	lo = k
	for 1-cdf > tail && k < n {
		step()
	}
	hi = k
	if mirror {
		// Counted the failures: mirror onto the successes.
		lo, hi = n-hi, n-lo
	}
	return lo, hi, true
}

// TestBinomialBandsAgree: the two exact-law bands of the fuzz checks
// agree where both apply (the table row for Binomial(512, p) and the
// small-mean recurrence), and they bracket the mean.
func TestBinomialBandsAgree(t *testing.T) {
	const m = 512
	for _, p := range []float64{2.9e-6, 1.1e-5, 0.001, 0.02, 0.98, 0.999, 1 - 1.1e-5} {
		tlo, thi := binomialBand(NewBinomialTable(p, m).cum[m-1], binomialTail)
		slo, shi, ok := smallMeanBinomialBand(m, p, binomialTail)
		if !ok || tlo != slo || thi != shi {
			t.Errorf("p=%g: table band [%d, %d], recurrence band [%d, %d] (ok=%v)", p, tlo, thi, slo, shi, ok)
		}
		if mean := m * p; float64(tlo) > mean || float64(thi) < mean {
			t.Errorf("p=%g: band [%d, %d] misses the mean %g", p, tlo, thi, mean)
		}
	}
	if _, _, ok := smallMeanBinomialBand(m, 0.5, binomialTail); ok {
		t.Error("small-mean band accepted Binomial(512, 0.5)")
	}
}
