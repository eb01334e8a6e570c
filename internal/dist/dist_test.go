package dist

import (
	"math"
	"testing"

	"eventcap/internal/numeric"
	"eventcap/internal/rng"
)

// allDistributions returns a representative instance of every
// implementation for the generic conformance suite.
func allDistributions(t *testing.T) []Interarrival {
	t.Helper()
	w, err := NewWeibull(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWeibull(10, 0.7) // decreasing hazard
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPareto(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGeometric(0.2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeterministic(7)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUniformInt(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEmpirical([]float64{0, 1, 2, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMarkovRenewal(0.7, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMarkovRenewal(0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := NewLogNormal(3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := NewNegBinomial(4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return []Interarrival{w, w2, p, g, d, u, e, m, m2, ln, nb}
}

func TestConformancePMFMatchesCDF(t *testing.T) {
	for _, d := range allDistributions(t) {
		for i := 0; i <= 300; i++ {
			want := d.CDF(i) - d.CDF(i-1)
			if got := d.PMF(i); math.Abs(got-want) > 1e-10 {
				t.Errorf("%s: PMF(%d)=%v but CDF diff=%v", d.Name(), i, got, want)
				break
			}
		}
	}
}

func TestConformancePMFNonnegativeSumsToOne(t *testing.T) {
	for _, d := range allDistributions(t) {
		var sum numeric.KahanSum
		for i := 1; i <= 2000000; i++ {
			a := d.PMF(i)
			if a < 0 {
				t.Fatalf("%s: PMF(%d)=%v negative", d.Name(), i, a)
			}
			sum.Add(a)
			if 1-d.CDF(i) < 1e-13 {
				break
			}
		}
		// Heavy tails (Pareto) cannot be summed to 1e-13 in bounded time;
		// accept the residual tail as reported by the CDF.
		if got := sum.Value(); got > 1+1e-9 {
			t.Errorf("%s: PMF sums to %v > 1", d.Name(), got)
		}
	}
}

func TestConformanceCDFMonotone(t *testing.T) {
	for _, d := range allDistributions(t) {
		prev := 0.0
		for i := 0; i <= 500; i++ {
			f := d.CDF(i)
			if f < prev-1e-12 {
				t.Errorf("%s: CDF decreases at %d (%v -> %v)", d.Name(), i, prev, f)
				break
			}
			if f < 0 || f > 1+1e-12 {
				t.Errorf("%s: CDF(%d)=%v out of range", d.Name(), i, f)
				break
			}
			prev = f
		}
		if d.CDF(0) != 0 {
			t.Errorf("%s: CDF(0)=%v, want 0", d.Name(), d.CDF(0))
		}
		if d.CDF(-5) != 0 {
			t.Errorf("%s: CDF(-5)=%v, want 0", d.Name(), d.CDF(-5))
		}
	}
}

func TestConformanceHazardIdentity(t *testing.T) {
	for _, d := range allDistributions(t) {
		for i := 1; i <= 300; i++ {
			surv := 1 - d.CDF(i-1)
			// Below ~1e-7 survival the reference 1−CDF(i−1) is itself
			// dominated by cancellation error; the analytic hazards are
			// the trustworthy side there.
			if surv < 1e-7 {
				break
			}
			want := d.PMF(i) / surv
			if got := d.Hazard(i); math.Abs(got-want) > 1e-8 {
				t.Errorf("%s: Hazard(%d)=%v, want %v", d.Name(), i, got, want)
				break
			}
			if got := d.Hazard(i); got < 0 || got > 1 {
				t.Errorf("%s: Hazard(%d)=%v out of [0,1]", d.Name(), i, got)
				break
			}
		}
		if d.Hazard(0) != 0 {
			t.Errorf("%s: Hazard(0) != 0", d.Name())
		}
	}
}

func TestConformanceMeanMatchesSurvivalSum(t *testing.T) {
	for _, d := range allDistributions(t) {
		// μ = Σ_{j>=0} (1 − F(j)). Pareto needs its analytic tail, so
		// allow a relative tolerance driven by the truncated tail mass.
		var sum numeric.KahanSum
		horizon := 2000000
		for j := 0; j < horizon; j++ {
			s := 1 - d.CDF(j)
			if s <= 0 {
				break
			}
			sum.Add(s)
			if s < 1e-12 && j > 10 {
				break
			}
		}
		got := d.Mean()
		want := sum.Value()
		if math.Abs(got-want) > 1e-3*(1+want) {
			t.Errorf("%s: Mean()=%v, survival sum=%v", d.Name(), got, want)
		}
	}
}

func TestConformanceSampleDistribution(t *testing.T) {
	src := rng.New(2026, 7)
	for _, d := range allDistributions(t) {
		const n = 200000
		var sum float64
		counts := make(map[int]int)
		for k := 0; k < n; k++ {
			x := d.Sample(src)
			if x < 1 {
				t.Fatalf("%s: sample %d < 1", d.Name(), x)
			}
			sum += float64(x)
			if x <= 50 {
				counts[x]++
			}
		}
		mean := sum / n
		mu := d.Mean()
		// Standard error of the mean: be generous (heavy tails).
		if math.Abs(mean-mu) > 0.05*mu+0.1 {
			t.Errorf("%s: sample mean %v, want %v", d.Name(), mean, mu)
		}
		// Per-slot frequencies should match the PMF within binomial noise.
		for i := 1; i <= 50; i++ {
			p := d.PMF(i)
			if p < 1e-4 {
				continue
			}
			gotP := float64(counts[i]) / n
			sigma := math.Sqrt(p*(1-p)/n) + 1e-9
			if math.Abs(gotP-p) > 6*sigma {
				t.Errorf("%s: slot %d frequency %v, want %v (±%v)", d.Name(), i, gotP, p, 6*sigma)
			}
		}
	}
}

func TestWeibullAgainstContinuousMean(t *testing.T) {
	w, err := NewWeibull(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	cont := 40 * math.Gamma(1+1.0/3)
	// Discretizing by ceiling shifts the mean up by at most 1 slot.
	if w.Mean() < cont || w.Mean() > cont+1 {
		t.Fatalf("discrete mean %v, continuous %v", w.Mean(), cont)
	}
}

func TestWeibullIncreasingHazardForShapeAbove1(t *testing.T) {
	w, err := NewWeibull(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i := 1; i <= 100; i++ {
		h := w.Hazard(i)
		if h < prev-1e-12 {
			t.Fatalf("hazard not increasing at slot %d: %v -> %v", i, prev, h)
		}
		prev = h
	}
}

func TestWeibullRejectsBadParams(t *testing.T) {
	for _, tc := range [][2]float64{{0, 1}, {1, 0}, {-1, 2}, {2, -1}, {math.NaN(), 1}} {
		if _, err := NewWeibull(tc[0], tc[1]); err == nil {
			t.Errorf("NewWeibull(%v, %v) succeeded", tc[0], tc[1])
		}
	}
}

func TestParetoAgainstContinuousMean(t *testing.T) {
	p, err := NewPareto(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	cont := 2.0 * 10 / (2 - 1) // γ1·γ2/(γ1−1) = 20
	if p.Mean() < cont || p.Mean() > cont+1 {
		t.Fatalf("discrete mean %v, continuous %v", p.Mean(), cont)
	}
}

func TestParetoNoMassBelowMinimum(t *testing.T) {
	p, err := NewPareto(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if p.PMF(i) != 0 {
			t.Fatalf("PMF(%d)=%v below minimum", i, p.PMF(i))
		}
	}
	if p.PMF(11) <= 0 {
		t.Fatal("no mass at first slot past minimum")
	}
}

func TestParetoDecreasingHazardPastMinimum(t *testing.T) {
	p, err := NewPareto(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for i := 11; i <= 200; i++ {
		h := p.Hazard(i)
		if h > prev+1e-12 {
			t.Fatalf("hazard increased at slot %d: %v -> %v", i, prev, h)
		}
		prev = h
	}
}

func TestParetoSurvivalSumFrom(t *testing.T) {
	p, err := NewPareto(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check the Euler–Maclaurin tail against direct summation at a
	// point where direct summation still converges quickly.
	direct := 0.0
	for j := 50; j < 5000000; j++ {
		direct += 1 - p.CDF(j)
	}
	got := p.SurvivalSumFrom(50)
	if math.Abs(got-direct) > 1e-4*(1+direct) {
		t.Fatalf("SurvivalSumFrom(50)=%v, direct=%v", got, direct)
	}
}

func TestParetoRejectsBadParams(t *testing.T) {
	for _, tc := range [][2]float64{{1, 10}, {0.5, 10}, {2, 0}, {2, -3}} {
		if _, err := NewPareto(tc[0], tc[1]); err == nil {
			t.Errorf("NewPareto(%v, %v) succeeded", tc[0], tc[1])
		}
	}
}

func TestGeometricConstantHazard(t *testing.T) {
	g, err := NewGeometric(0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if math.Abs(g.Hazard(i)-0.3) > 1e-12 {
			t.Fatalf("hazard at slot %d is %v, want 0.3", i, g.Hazard(i))
		}
	}
	if math.Abs(g.Mean()-1/0.3) > 1e-12 {
		t.Fatalf("mean %v, want %v", g.Mean(), 1/0.3)
	}
}

func TestGeometricEdgeP1(t *testing.T) {
	g, err := NewGeometric(1)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1, 1)
	for i := 0; i < 10; i++ {
		if g.Sample(src) != 1 {
			t.Fatal("Geometric(1) must always sample 1")
		}
	}
}

func TestGeometricRejectsBadParams(t *testing.T) {
	for _, p := range []float64{0, -0.1, 1.1} {
		if _, err := NewGeometric(p); err == nil {
			t.Errorf("NewGeometric(%v) succeeded", p)
		}
	}
}

func TestDeterministicPointMass(t *testing.T) {
	d, err := NewDeterministic(5)
	if err != nil {
		t.Fatal(err)
	}
	if d.PMF(5) != 1 || d.PMF(4) != 0 || d.Hazard(5) != 1 || d.Mean() != 5 {
		t.Fatal("point mass properties violated")
	}
	if _, err := NewDeterministic(0); err == nil {
		t.Fatal("NewDeterministic(0) succeeded")
	}
}

func TestUniformIntRange(t *testing.T) {
	u, err := NewUniformInt(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u.Mean()-4.5) > 1e-12 {
		t.Fatalf("mean %v, want 4.5", u.Mean())
	}
	if u.Hazard(6) != 1 {
		t.Fatalf("last-slot hazard %v, want 1", u.Hazard(6))
	}
	for _, bad := range [][2]int{{0, 5}, {5, 4}, {-1, -1}} {
		if _, err := NewUniformInt(bad[0], bad[1]); err == nil {
			t.Errorf("NewUniformInt(%d, %d) succeeded", bad[0], bad[1])
		}
	}
}

func TestEmpiricalNormalization(t *testing.T) {
	e, err := NewEmpirical([]float64{2, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.PMF(1)-0.5) > 1e-12 || e.PMF(2) != 0 || math.Abs(e.PMF(3)-0.5) > 1e-12 {
		t.Fatal("normalization wrong")
	}
	if e.CDF(3) != 1 {
		t.Fatalf("CDF at support end %v, want exactly 1", e.CDF(3))
	}
	if math.Abs(e.Mean()-2) > 1e-12 {
		t.Fatalf("mean %v, want 2", e.Mean())
	}
	if e.MaxSupport() != 3 {
		t.Fatal("MaxSupport mismatch")
	}
}

// TestLastSupportHazardIsExactlyOne: at the last slot a finite law can
// reach, the hazard is exactly 1, even where PMF(i)/(1 − CDF(i−1))
// rounds below it (0.3/0.30000000000000004 on the trimodal law). Past
// the support it is 0.
func TestLastSupportHazardIsExactlyOne(t *testing.T) {
	trimodal, err := NewEmpirical([]float64{0.3, 0, 0, 0, 0, 0, 0, 0.4, 0, 0, 0, 0, 0, 0, 0, 0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if q := trimodal.PMF(17) / (1 - trimodal.CDF(16)); q == 1 {
		t.Fatalf("the quotient is already exactly 1 (%v); the case no longer exercises the fix", q)
	}
	skewed, err := NewEmpirical([]float64{1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUniformInt(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		d    Interarrival
		last int
	}{{trimodal, 17}, {skewed, 7}, {u, 9}} {
		if h := c.d.Hazard(c.last); h != 1 {
			t.Errorf("%s: hazard at the last support slot %d is %.17g, want exactly 1", c.d.Name(), c.last, h)
		}
		if h := c.d.Hazard(c.last + 1); h != 0 {
			t.Errorf("%s: hazard past the support is %v, want 0", c.d.Name(), h)
		}
	}
}

func TestEmpiricalRejectsBadInput(t *testing.T) {
	if _, err := NewEmpirical(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewEmpirical([]float64{0, 0}); err == nil {
		t.Fatal("zero weights accepted")
	}
	if _, err := NewEmpirical([]float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestMarkovRenewalIdentities(t *testing.T) {
	m, err := NewMarkovRenewal(0.7, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Hazard(1)-0.7) > 1e-12 {
		t.Fatalf("β1=%v, want a=0.7", m.Hazard(1))
	}
	for i := 2; i <= 50; i++ {
		if math.Abs(m.Hazard(i)-0.4) > 1e-12 {
			t.Fatalf("β%d=%v, want 1−b=0.4", i, m.Hazard(i))
		}
	}
	// Mean formula vs direct summation.
	var direct float64
	for i := 1; i <= 10000; i++ {
		direct += float64(i) * m.PMF(i)
	}
	if math.Abs(m.Mean()-direct) > 1e-9 {
		t.Fatalf("mean %v, direct %v", m.Mean(), direct)
	}
	if m.A() != 0.7 || m.B() != 0.6 {
		t.Fatal("accessor mismatch")
	}
}

func TestMarkovRenewalRejectsBadParams(t *testing.T) {
	for _, ab := range [][2]float64{{0, 0.5}, {1.1, 0.5}, {0.5, 1}, {0.5, -0.1}} {
		if _, err := NewMarkovRenewal(ab[0], ab[1]); err == nil {
			t.Errorf("NewMarkovRenewal(%v, %v) succeeded", ab[0], ab[1])
		}
	}
}

func TestTabulateWeibull(t *testing.T) {
	w, _ := NewWeibull(40, 3)
	tab, err := Tabulate(w, 1e-12, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Truncated {
		t.Fatal("Weibull(40,3) should not hit the cap")
	}
	if math.Abs(numeric.Sum(tab.Alpha)-1) > 1e-12 {
		t.Fatalf("tabulation sums to %v", numeric.Sum(tab.Alpha))
	}
	if math.Abs(tab.Mean()-w.Mean()) > 1e-6 {
		t.Fatalf("tabulated mean %v, distribution mean %v", tab.Mean(), w.Mean())
	}
	if len(tab.Alpha) < 100 || len(tab.Alpha) > 300 {
		t.Fatalf("unexpected table length %d", len(tab.Alpha))
	}
}

func TestTabulateParetoHitsCap(t *testing.T) {
	p, _ := NewPareto(2, 10)
	tab, err := Tabulate(p, 1e-12, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Truncated {
		t.Fatal("Pareto(2,10) must hit the cap at 5000 slots for eps 1e-12")
	}
	if tab.TailMass <= 0 {
		t.Fatal("truncated tabulation should report tail mass")
	}
	if math.Abs(numeric.Sum(tab.Alpha)-1) > 1e-12 {
		t.Fatal("truncated table must be renormalized")
	}
}

func TestTabulateErrors(t *testing.T) {
	w, _ := NewWeibull(40, 3)
	if _, err := Tabulate(w, 1e-12, 0); err == nil {
		t.Fatal("maxLen 0 accepted")
	}
	p, _ := NewPareto(2, 1000)
	if _, err := Tabulate(p, 1e-12, 10); err == nil {
		t.Fatal("no-mass table accepted")
	}
}

func TestLogNormalBasics(t *testing.T) {
	l, err := NewLogNormal(3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// Continuous mean is exp(mu + sigma^2/2); ceiling discretization
	// shifts it up by at most 1.
	cont := math.Exp(3 + 0.4*0.4/2)
	if l.Mean() < cont || l.Mean() > cont+1 {
		t.Fatalf("discrete mean %v, continuous %v", l.Mean(), cont)
	}
	// Hazard rises then falls (unimodal up to discretization noise):
	// find the peak and check rough monotonicity on both sides.
	peak, peakVal := 0, -1.0
	for i := 1; i <= 200; i++ {
		if h := l.Hazard(i); h > peakVal {
			peak, peakVal = i, h
		}
	}
	if peak <= 2 || peak >= 150 {
		t.Fatalf("hazard peak at %d looks wrong", peak)
	}
	if l.Hazard(peak/3) > peakVal || l.Hazard(peak*3) > peakVal {
		t.Fatalf("hazard not unimodal around peak %d", peak)
	}
}

func TestLogNormalRejectsBadParams(t *testing.T) {
	for _, tc := range [][2]float64{{3, 0}, {3, -1}, {math.NaN(), 1}, {math.Inf(1), 1}} {
		if _, err := NewLogNormal(tc[0], tc[1]); err == nil {
			t.Errorf("NewLogNormal(%v, %v) succeeded", tc[0], tc[1])
		}
	}
}

func TestNegBinomialBasics(t *testing.T) {
	nb, err := NewNegBinomial(4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nb.Mean()-4/0.3) > 1e-9 {
		t.Fatalf("mean %v, want %v", nb.Mean(), 4/0.3)
	}
	// No mass below k; first atom is p^k.
	for i := 0; i < 4; i++ {
		if nb.PMF(i) != 0 {
			t.Fatalf("mass %v below support at %d", nb.PMF(i), i)
		}
	}
	if math.Abs(nb.PMF(4)-math.Pow(0.3, 4)) > 1e-15 {
		t.Fatalf("P(X=4) = %v, want p^4", nb.PMF(4))
	}
	// k=1 reduces to Geometric(p).
	nb1, err := NewNegBinomial(1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGeometric(0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 60; i++ {
		if math.Abs(nb1.PMF(i)-g.PMF(i)) > 1e-12 {
			t.Fatalf("k=1 PMF(%d)=%v, geometric %v", i, nb1.PMF(i), g.PMF(i))
		}
	}
	// Increasing hazard toward p (checked while the survival is large
	// enough that 1−CDF is numerically trustworthy).
	prev := -1.0
	for i := 4; i <= 200 && 1-nb.CDF(i-1) > 1e-9; i++ {
		h := nb.Hazard(i)
		if h < prev-1e-9 {
			t.Fatalf("hazard decreased at %d: %v -> %v", i, prev, h)
		}
		prev = h
	}
	if prev > 0.3+1e-9 {
		t.Fatalf("hazard limit %v exceeds stage probability", prev)
	}
}

func TestNegBinomialRejectsBadParams(t *testing.T) {
	if _, err := NewNegBinomial(0, 0.5); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewNegBinomial(2, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := NewNegBinomial(2, 1.5); err == nil {
		t.Fatal("p>1 accepted")
	}
}
