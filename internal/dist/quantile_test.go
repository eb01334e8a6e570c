package dist

import (
	"math"
	"testing"

	"eventcap/internal/rng"
)

func quantileSamplers(t *testing.T) []InverseSampler {
	t.Helper()
	w1, err := NewWeibull(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWeibull(0.9, 0.7) // minGap 1, short table
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPareto(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPareto(1.5, 1) // heavy tail: table capped, fallback live
	if err != nil {
		t.Fatal(err)
	}
	return []InverseSampler{w1, w2, p1, p2}
}

// TestQuantileTableMatchesSampleUAtThresholds is the byte-identity proof
// a compiled batch leans on: at every tabulated cut — the exact grid
// uniform where the gap increments — and for several grid neighbors on
// each side, Gap must agree with a direct SampleU evaluation. The cuts
// are where rounding in the transcendental quantile could plausibly
// disagree with the bisection, so sweeping their neighborhoods covers the
// only risky inputs; a mismatch anywhere else would imply SampleU is not
// nondecreasing on the grid.
func TestQuantileTableMatchesSampleUAtThresholds(t *testing.T) {
	const grid = uint64(1) << quantileGridBits
	for _, s := range quantileSamplers(t) {
		qt := NewQuantileTable(s)
		check := func(k uint64) {
			u := float64(k) / float64(grid)
			if got, want := qt.Gap(u), s.SampleU(u); got != want {
				t.Fatalf("%s: Gap(%v) = %d, SampleU gives %d", s.Name(), u, got, want)
			}
		}
		check(0)
		check(grid - 1)
		for _, cut := range qt.cut {
			k := uint64(math.Round(cut * float64(grid)))
			for d := -2; d <= 2; d++ {
				n := int64(k) + int64(d)
				if n < 0 || n >= int64(grid) {
					continue
				}
				check(uint64(n))
			}
		}
		if len(qt.cut) == 0 {
			t.Fatalf("%s: table tabulated no cuts", s.Name())
		}
	}
}

// TestQuantileTableStreamEquivalence drives the table and the sampler
// from identical source states: every draw must match bit for bit, which
// is the form of the contract a compiled batch actually uses.
func TestQuantileTableStreamEquivalence(t *testing.T) {
	for _, s := range quantileSamplers(t) {
		qt := NewQuantileTable(s)
		a := rng.New(99, 0x0a)
		b := rng.New(99, 0x0a)
		for i := 0; i < 200_000; i++ {
			got, want := qt.Sample(a), s.Sample(b)
			if got != want {
				t.Fatalf("%s draw %d: table %d, sampler %d", s.Name(), i, got, want)
			}
		}
	}
}

// TestQuantileTableTailFallback forces uniforms beyond the last cut —
// including the largest grid value — where the table must delegate to
// SampleU rather than clamp to the tabulated range.
func TestQuantileTableTailFallback(t *testing.T) {
	const grid = uint64(1) << quantileGridBits
	p, err := NewPareto(1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	qt := NewQuantileTable(p)
	if len(qt.cut) != quantileMaxGaps {
		t.Fatalf("heavy tail should cap the table at %d cuts, got %d", quantileMaxGaps, len(qt.cut))
	}
	last := qt.cut[len(qt.cut)-1]
	for _, u := range []float64{last, (last + 1) / 2, float64(grid-1) / float64(grid)} {
		got, want := qt.Gap(u), p.SampleU(u)
		if got != want {
			t.Fatalf("tail u=%v: Gap %d, SampleU %d", u, got, want)
		}
		if want <= qt.minGap+len(qt.cut)-1 {
			t.Fatalf("tail u=%v unexpectedly inside the tabulated range (gap %d)", u, want)
		}
	}
}

// TestAsInverseSampler checks the eligibility probe: the inversion
// samplers expose their map, table-backed distributions do not.
func TestAsInverseSampler(t *testing.T) {
	w, err := NewWeibull(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if AsInverseSampler(w) == nil {
		t.Error("Weibull should be an InverseSampler")
	}
	e, err := NewEmpirical([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if AsInverseSampler(e) != nil {
		t.Error("Empirical must not probe as an InverseSampler")
	}
}

// FuzzQuantileTableGap hammers arbitrary grid uniforms against direct
// SampleU evaluation across the inversion samplers; any disagreement is a
// real table bug because both sides are deterministic.
func FuzzQuantileTableGap(f *testing.F) {
	f.Add(uint64(0), 40.0, 3.0, true)
	f.Add(uint64(1<<53-1), 40.0, 3.0, true)
	f.Add(uint64(1<<52), 2.0, 10.0, false)
	f.Add(uint64(12345678901), 1.5, 1.0, false)
	f.Fuzz(func(t *testing.T, k uint64, a, b float64, weibull bool) {
		const grid = uint64(1) << quantileGridBits
		k %= grid
		var s InverseSampler
		if weibull {
			w, err := NewWeibull(clampParam(a, 0.1, 500), clampParam(b, 0.2, 8))
			if err != nil {
				t.Skip()
			}
			s = w
		} else {
			p, err := NewPareto(clampParam(a, 1.05, 16), clampParam(b, 0.1, 500))
			if err != nil {
				t.Skip()
			}
			s = p
		}
		qt := NewQuantileTable(s)
		u := float64(k) / float64(grid)
		if got, want := qt.Gap(u), s.SampleU(u); got != want {
			t.Fatalf("%s: Gap(%v) = %d, SampleU gives %d", s.Name(), u, got, want)
		}
	})
}

// clampParam maps an arbitrary fuzzed float into [lo, hi], folding
// non-finite values to lo.
func clampParam(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return lo
	}
	v = math.Abs(v)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
