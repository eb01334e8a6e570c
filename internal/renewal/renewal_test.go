package renewal

import (
	"math"
	"testing"

	"eventcap/internal/dist"
	"eventcap/internal/numeric"
	"eventcap/internal/rng"
)

func mustProcess(t *testing.T, alpha []float64) *Process {
	t.Helper()
	p, err := New(alpha)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func fromDist(t *testing.T, d dist.Interarrival) *Process {
	t.Helper()
	tab, err := dist.Tabulate(d, 1e-12, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return mustProcess(t, tab.Alpha)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty PMF accepted")
	}
	if _, err := New([]float64{0.5, 0.4}); err == nil {
		t.Fatal("sub-stochastic PMF accepted")
	}
	if _, err := New([]float64{1.2, -0.2}); err == nil {
		t.Fatal("negative PMF accepted")
	}
}

func TestDeterministicMass(t *testing.T) {
	// X = 3 always: renewals at exactly 3, 6, 9, ...
	p := mustProcess(t, []float64{0, 0, 1})
	for tt := 1; tt <= 30; tt++ {
		want := 0.0
		if tt%3 == 0 {
			want = 1
		}
		if got := p.Mass(tt); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Mass(%d)=%v, want %v", tt, got, want)
		}
	}
	if p.Mass(0) != 1 || p.Mass(-1) != 0 {
		t.Fatal("Mass boundary conventions violated")
	}
}

func TestGeometricMassConstant(t *testing.T) {
	// Memoryless: every slot is a renewal with probability p,
	// independent of history, so m(t) = p for all t >= 1.
	g, err := dist.NewGeometric(0.3)
	if err != nil {
		t.Fatal(err)
	}
	p := fromDist(t, g)
	for tt := 1; tt <= 200; tt++ {
		if got := p.Mass(tt); math.Abs(got-0.3) > 1e-9 {
			t.Fatalf("Mass(%d)=%v, want 0.3", tt, got)
		}
	}
}

// TestElementaryRenewalTheorem: the renewal mass averages to the event
// rate 1/μ of the law, for an aperiodic law of each shape the
// experiments use, including the Markov chains of Fig. 5.
func TestElementaryRenewalTheorem(t *testing.T) {
	for _, tc := range []struct {
		name string
		law  func() (dist.Interarrival, error)
	}{
		{"weibull", func() (dist.Interarrival, error) { return dist.NewWeibull(40, 3) }},
		{"uniform", func() (dist.Interarrival, error) { return dist.NewUniformInt(2, 5) }},
		{"markov-0.7-0.6", func() (dist.Interarrival, error) { return dist.NewMarkovRenewal(0.7, 0.6) }},
		{"markov-0.3-0.2", func() (dist.Interarrival, error) { return dist.NewMarkovRenewal(0.3, 0.2) }},
		{"markov-0.9-0.9", func() (dist.Interarrival, error) { return dist.NewMarkovRenewal(0.9, 0.9) }},
		{"markov-0.5-0.5", func() (dist.Interarrival, error) { return dist.NewMarkovRenewal(0.5, 0.5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.law()
			if err != nil {
				t.Fatal(err)
			}
			p := fromDist(t, d)
			// m(t) -> 1/μ, with μ from the law's closed form.
			limit := 1 / d.Mean()
			if math.Abs(p.Mean()-d.Mean()) > 1e-6 {
				t.Fatalf("tabulated mean %v, law mean %v", p.Mean(), d.Mean())
			}
			avg := 0.0
			const from, to = 2000, 3000
			for tt := from; tt < to; tt++ {
				avg += p.Mass(tt)
			}
			avg /= to - from
			if math.Abs(avg-limit) > 1e-6 {
				t.Fatalf("mass average %v, limit %v", avg, limit)
			}
		})
	}
}

func TestMassMatchesMonteCarlo(t *testing.T) {
	e, err := dist.NewEmpirical([]float64{0.2, 0.5, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	p := fromDist(t, e)
	src := rng.New(99, 0)
	const trials = 300000
	const horizon = 12
	counts := make([]int, horizon+1)
	for k := 0; k < trials; k++ {
		t0 := 0
		for t0 <= horizon {
			t0 += e.Sample(src)
			if t0 <= horizon {
				counts[t0]++
			}
		}
	}
	for tt := 1; tt <= horizon; tt++ {
		got := float64(counts[tt]) / trials
		want := p.Mass(tt)
		sigma := math.Sqrt(want*(1-want)/trials) + 1e-9
		if math.Abs(got-want) > 6*sigma {
			t.Errorf("Mass(%d): MC %v vs analytic %v", tt, got, want)
		}
	}
}

func BenchmarkMassWeibull(b *testing.B) {
	w, err := dist.NewWeibull(40, 3)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := dist.Tabulate(w, 1e-12, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(tab.Alpha)
		if err != nil {
			b.Fatal(err)
		}
		_ = p.Mass(5000)
	}
}

func TestEquilibriumAgeSumsToOne(t *testing.T) {
	u, err := dist.NewUniformInt(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := fromDist(t, u)
	eq := p.EquilibriumAge()
	var sum numeric.KahanSum
	for _, v := range eq {
		if v < 0 {
			t.Fatal("negative equilibrium mass")
		}
		sum.Add(v)
	}
	if math.Abs(sum.Value()-1) > 1e-9 {
		t.Fatalf("equilibrium age distribution sums to %v", sum.Value())
	}
	// Hazard under equilibrium: Σ P(age=j)·β_j must equal 1/μ.
	var hz numeric.KahanSum
	for j, w := range eq {
		hz.Add(w * u.Hazard(j+1))
	}
	if want := 1 / p.Mean(); math.Abs(hz.Value()-want) > 1e-9 {
		t.Fatalf("equilibrium hazard %v, want 1/μ = %v", hz.Value(), want)
	}
}

// TestEquilibriumMatchesLongRunMass: the renewal mass function converges
// to the equilibrium hazard.
func TestEquilibriumMatchesLongRunMass(t *testing.T) {
	e, err := dist.NewEmpirical([]float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	p := fromDist(t, e)
	if got, want := p.Mass(5000), 1/p.Mean(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("long-run mass %v, equilibrium hazard 1/μ = %v", got, want)
	}
}
