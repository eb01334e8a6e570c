package dist

import (
	"math"
	"testing"

	"eventcap/internal/rng"
)

// FuzzSampleBinomial cross-checks the exact binomial sampler against
// the table-based CDF inversion and the distribution's moments:
//
//   - support and edge behavior are exact invariants;
//   - the sampler is a pure function of the source state (determinism);
//   - the table's binary-search inversion must agree bit-for-bit with a
//     linear scan of the same CDF row (same single uniform);
//   - empirical means of both samplers stay within a wide concentration
//     bound of the exact mean n·p — every input is deterministic, so a
//     bound violation is a real sampler bug, not flake.
func FuzzSampleBinomial(f *testing.F) {
	f.Add(uint64(1), int64(10), 0.3)
	f.Add(uint64(2), int64(1000), 0.001) // geometric-gaps path
	f.Add(uint64(3), int64(5000), 0.4)   // mode-inversion path
	f.Add(uint64(4), int64(7), 0.999)    // symmetry path (p > 0.5)
	f.Add(uint64(5), int64(64), 0.0)     // degenerate p = 0
	f.Add(uint64(6), int64(64), 1.0)     // degenerate p = 1
	f.Add(uint64(7), int64(0), 0.5)      // empty support
	f.Add(uint64(8), int64(32), math.NaN())
	f.Fuzz(func(t *testing.T, seed uint64, n int64, p float64) {
		if n < 0 {
			n = -n
		}
		n %= 1 << 16

		r1 := SampleBinomial(rng.New(seed, 0xb1), n, p)
		r2 := SampleBinomial(rng.New(seed, 0xb1), n, p)
		if r1 != r2 {
			t.Fatalf("SampleBinomial(seed=%d, n=%d, p=%g) not deterministic: %d vs %d", seed, n, p, r1, r2)
		}
		if r1 < 0 || r1 > n {
			t.Fatalf("SampleBinomial(n=%d, p=%g) = %d outside [0, n]", n, p, r1)
		}
		switch {
		case n == 0 || p <= 0 || math.IsNaN(p):
			if r1 != 0 {
				t.Fatalf("degenerate case (n=%d, p=%g) must yield 0, got %d", n, p, r1)
			}
		case p >= 1:
			if r1 != n {
				t.Fatalf("sure success (n=%d, p=%g) must yield n, got %d", n, p, r1)
			}
		}

		if !(p > 0) || p >= 1 || n < 1 || n > 512 {
			return
		}

		// Table inversion vs. linear scan of the identical CDF row, fed
		// the identical uniform: the binary search is just an index
		// lookup, so any disagreement is a real inversion bug.
		tbl := NewBinomialTable(p, int(n))
		uSrc := rng.New(seed, 0xcdf)
		u := uSrc.Float64()
		got := tbl.Sample(rng.New(seed, 0xcdf), n)
		row := tbl.cum[n-1]
		want := int64(len(row) - 1)
		for k, c := range row {
			if c >= u {
				want = int64(k)
				break
			}
		}
		if got != want {
			t.Fatalf("BinomialTable.Sample(n=%d, p=%g, u=%g) = %d, linear CDF inversion gives %d", n, p, u, got, want)
		}

		// Moment check: empirical means of both samplers against the
		// exact mean, Hoeffding-style bound scaled to the support.
		const m = 256
		var sumS, sumT float64
		sSrc := rng.New(seed, 0x5a)
		tSrc := rng.New(seed, 0x7b)
		for i := 0; i < m; i++ {
			sumS += float64(SampleBinomial(sSrc, n, p))
			sumT += float64(tbl.Sample(tSrc, n))
		}
		mean := float64(n) * p
		sigma := math.Sqrt(float64(n) * p * (1 - p))
		tol := 12*sigma/math.Sqrt(m) + 1e-9
		if d := math.Abs(sumS/m - mean); d > tol {
			t.Fatalf("SampleBinomial mean drifted: |%g - %g| = %g > %g (n=%d, p=%g)", sumS/m, mean, d, tol, n, p)
		}
		if d := math.Abs(sumT/m - mean); d > tol {
			t.Fatalf("BinomialTable mean drifted: |%g - %g| = %g > %g (n=%d, p=%g)", sumT/m, mean, d, tol, n, p)
		}
	})
}
