package core

import (
	"errors"
	"math"
	"testing"

	"eventcap/internal/dist"
	"eventcap/internal/obs"
	"eventcap/internal/rng"
)

// closedTailTol bounds the relative disagreement between a closed
// always-on tail and the walk it replaces. Both sum the same series; the
// walk rounds once per f-state and trims under 1e-14 of the belief per
// step, so they agree to ~1e-13 on the paper's laws.
const closedTailTol = 1e-12

// relClose reports whether a and b agree within tol relative to the
// larger magnitude.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// checkClosedTail compares the solver's evaluation of cp (walk to N3,
// closed tail) with EvaluatePI's walk of the same chain: the same error
// outcome, and U, E_out and ExpectedCycle within closedTailTol.
func checkClosedTail(t *testing.T, pe *piEvaluator, d dist.Interarrival, cp ClusteringPolicy) {
	t.Helper()
	got, gerr := pe.clustering(cp)
	want, werr := EvaluatePI(d, pe.p, cp.policyFn())
	if (gerr == nil) != (werr == nil) || (gerr != nil && !errors.Is(gerr, werr)) {
		t.Fatalf("%s %+v: closed tail error %v, walk error %v", d.Name(), cp, gerr, werr)
	}
	if gerr != nil {
		return
	}
	for _, q := range []struct {
		name      string
		got, want float64
	}{
		{"U", got.CaptureProb, want.CaptureProb},
		{"E_out", got.EnergyRate, want.EnergyRate},
		{"cycle", got.ExpectedCycle, want.ExpectedCycle},
	} {
		if !relClose(q.got, q.want, closedTailTol) {
			t.Fatalf("%s %+v: closed tail %s = %.17g, walk %.17g (rel %.2g)",
				d.Name(), cp, q.name, q.got, q.want, math.Abs(q.got-q.want)/math.Abs(q.want))
		}
	}
	if got.Horizon > cp.N3 {
		t.Fatalf("%s %+v: solver evaluation walked %d f-states, past N3", d.Name(), cp, got.Horizon)
	}
}

// TestResidualLifeTable: a geometric law has R_j = 1/q at every age, a
// hazard of exactly 1 gives R_j = 1, ages whose hazard is 0 through the
// elder bucket never renew (N_j = 1, R_j = 0), and R_1 of a renewing law
// is the modelled mean.
func TestResidualLifeTable(t *testing.T) {
	for _, q := range []float64{0.05, 0.2, 0.3, 0.9} {
		g, err := dist.NewGeometric(q)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range residualLifeTable(hazardTable(g)) {
			if !relClose(r.life, 1/q, closedTailTol) || r.never != 0 {
				t.Fatalf("Geometric(%g): age %d has (R, N) = (%.17g, %v), want (1/q, 0) = (%.17g, 0)", q, j+1, r.life, r.never, 1/q)
			}
		}
	}
	tails := residualLifeTable(hazardTable(trimodal(t)))
	want := map[int]float64{1: 1 + 0.7*(7+(1-4.0/7)*9), 8: 1 + (1-4.0/7)*9, 9: 9, 16: 2}
	for age, w := range want {
		if r := tails[age-1]; !relClose(r.life, w, closedTailTol) || r.never != 0 {
			t.Errorf("trimodal: age %d has (R, N) = (%.17g, %v), want (%.17g, 0)", age, r.life, r.never, w)
		}
	}
	if r := tails[16]; r != (ageTail{life: 1}) {
		t.Errorf("trimodal: age 17 has (R, N) = (%.17g, %v), want exactly (1, 0) where the hazard is 1", r.life, r.never)
	}
	for j := 17; j < maxBeliefAges; j++ {
		if r := tails[j]; r != (ageTail{never: 1}) {
			t.Fatalf("trimodal: age %d has (R, N) = (%v, %v), want (0, 1) past the support", j+1, r.life, r.never)
		}
	}
	for _, d := range []dist.Interarrival{mustWeibull(t, 40, 3), mustPareto(t, 2, 10), goldenMarkov(t), trimodal(t)} {
		hz := hazardTable(d)
		if r, mu := residualLifeTable(hz)[0], hazardTableMean(hz); !relClose(r.life, mu, closedTailTol) {
			t.Errorf("%s: R_1 = %.17g, modelled mean %.17g", d.Name(), r.life, mu)
		}
	}
}

// TestCloseTailDefectiveLaw: a law that puts half its mass at slot 1 and
// half past the belief's age cap, with zero hazard from age 2 through
// the elder bucket, renews from age 1 with probability 1/2 and never
// from an older age. A closed tail counts only the renewing paths and
// reports the rest as never; the solver, like the walk, rejects a
// policy whose never-renewing survival reaches 1e-6.
func TestCloseTailDefectiveLaw(t *testing.T) {
	w := make([]float64, maxBeliefAges+100)
	w[0], w[len(w)-1] = 1, 1
	d := mustEmpirical(t, w)
	p := DefaultParams()
	pe := newPIEvaluator(d, p)
	if r := residualLifeTable(pe.hz)[0]; r != (ageTail{life: 0.5, never: 0.5}) {
		t.Fatalf("age 1 has (R, N) = (%v, %v), want (0.5, 0.5)", r.life, r.never)
	}
	f := newBeliefFilter(pe.hz)
	const s = 1e-8
	cycle, energy, never := pe.closeTail(f, s)
	// Half the survival captures at the next slot, which costs δ1 + δ2.
	if !relClose(cycle, s/2, closedTailTol) || !relClose(never, s/2, closedTailTol) ||
		!relClose(energy, s/2*(p.Delta1+p.Delta2), closedTailTol) {
		t.Fatalf("closeTail(S = %g) = (cycle %g, energy %g, never %g), want (%g, %g, %g)",
			s, cycle, energy, never, s/2, s/2*(p.Delta1+p.Delta2), s/2)
	}
	for _, cp := range []ClusteringPolicy{
		{N1: 1, N2: 1, N3: 2, C1: 1, C2: 1, C3: 1},
		{N1: 3, N2: 5, N3: 40, C1: 1, C2: 0.5, C3: 1},
	} {
		if _, err := pe.clustering(cp); !errors.Is(err, ErrNoRenewal) {
			t.Errorf("%+v: closed tail error %v, want ErrNoRenewal", cp, err)
		}
		checkClosedTail(t, pe, d, cp)
	}
	scored := 0
	testHookCoarse = func(ClusteringPolicy, float64, float64) { scored++ }
	defer func() { testHookCoarse = nil }()
	if res, err := OptimizeClustering(d, 0.5, p, quickClustering); err == nil {
		t.Errorf("OptimizeClustering found %+v on a law that renews only from age 1", res.Policy)
	}
	if scored != 0 {
		t.Errorf("the coarse pass scored %d never-renewing candidates", scored)
	}
}

// TestClosedTailMatchesWalk: on generated clustering policies over the
// paper's Weibull(40,3), Pareto(2,10), the fig5a Markov chain and the
// trimodal law, the solver's evaluation (walk to N3, closed tail) agrees
// with EvaluatePI's walk of the whole chain.
func TestClosedTailMatchesWalk(t *testing.T) {
	src := rng.New(19, 0)
	p := DefaultParams()
	boundary := func() float64 {
		if src.Intn(2) == 0 {
			return 1
		}
		return src.Float64()
	}
	for _, d := range []dist.Interarrival{mustWeibull(t, 40, 3), mustPareto(t, 2, 10), goldenMarkov(t), trimodal(t)} {
		pe := newPIEvaluator(d, p)
		policies := []ClusteringPolicy{
			{N1: 1, N2: 1, N3: 2, C1: 1, C2: 1, C3: 1},
			{N1: 1, N2: 17, N3: 411, C1: 0.95, C2: 1, C3: 1},
		}
		for k := 0; k < 120; k++ {
			n1 := 1 + src.Intn(150)
			n2 := n1 + src.Intn(100)
			n3 := n2 + 1 + src.Intn(600)
			policies = append(policies, ClusteringPolicy{N1: n1, N2: n2, N3: n3, C1: boundary(), C2: boundary(), C3: boundary()})
		}
		for _, cp := range policies {
			checkClosedTail(t, pe, d, cp)
		}
	}
}

// TestCoarseCandidatesMatchEvaluation: the coarse pass closes each
// (n1, n2, gap) candidate from its shared cursor; its (U, E_out) must
// match the evaluation of the same deterministic policy, on the golden
// solves and the trimodal law.
func TestCoarseCandidatesMatchEvaluation(t *testing.T) {
	type scored struct {
		cp      ClusteringPolicy
		u, eout float64
	}
	var seen []scored
	testHookCoarse = func(cp ClusteringPolicy, u, eout float64) {
		seen = append(seen, scored{cp, u, eout})
	}
	defer func() { testHookCoarse = nil }()
	p := DefaultParams()
	checked := 0
	for _, s := range []struct {
		d     dist.Interarrival
		rates []float64
	}{
		{mustWeibull(t, 40, 3), []float64{0.1, 0.5}},
		{mustPareto(t, 2, 10), []float64{0.25, 1.25}},
		{goldenMarkov(t), []float64{0.5, 1.5}},
		{trimodal(t), []float64{0.15}},
	} {
		pe := newPIEvaluator(s.d, p)
		for _, e := range s.rates {
			seen = seen[:0]
			if _, err := OptimizeClustering(s.d, e, p, quickClustering); err != nil {
				t.Fatalf("%s e=%g: %v", s.d.Name(), e, err)
			}
			if len(seen) == 0 {
				t.Fatalf("%s e=%g: the coarse pass scored no candidate", s.d.Name(), e)
			}
			for k := 0; k < len(seen); k += 7 {
				c := seen[k]
				ev, err := pe.clustering(c.cp)
				if err != nil {
					t.Fatalf("%s %+v: coarse pass scored U = %v, evaluation failed: %v", s.d.Name(), c.cp, c.u, err)
				}
				if !relClose(c.u, ev.CaptureProb, closedTailTol) || !relClose(c.eout, ev.EnergyRate, closedTailTol) {
					t.Fatalf("%s %+v: coarse pass (U, E_out) = (%.17g, %.17g), evaluation (%.17g, %.17g)",
						s.d.Name(), c.cp, c.u, c.eout, ev.CaptureProb, ev.EnergyRate)
				}
				checked++
			}
		}
	}
	t.Logf("%d coarse candidates checked", checked)
}

// TestTrimodalBeliefStaysInSupport: with the trimodal law's last hazard
// exactly 1, no belief keeps mass at ages the law cannot reach — neither
// after 17 always-on slots and 400 cooling ones (the sensor saw no event
// where one was certain), nor when the first slot activates with
// probability 0.95.
func TestTrimodalBeliefStaysInSupport(t *testing.T) {
	d := trimodal(t)
	for _, first := range []float64{1, 0.95} {
		f := NewBeliefFilter(d)
		f.AdvanceNoCapture(first)
		for i := 1; i < 17; i++ {
			f.AdvanceNoCapture(1)
		}
		for i := 0; i < 400; i++ {
			f.AdvanceNoCapture(0)
			for age, w := range f.Belief() {
				if age >= 17 && w != 0 {
					t.Fatalf("first c = %g, cooling step %d: P(age = %d) = %g past the support", first, i, age+1, w)
				}
			}
		}
	}
}

// TestBeliefStepsCounted: the filter counts the updates that run, not
// the parked repeats it skips, and a region search publishes them.
func TestBeliefStepsCounted(t *testing.T) {
	f := NewBeliefFilter(mustPareto(t, 2, 10))
	want := int64(0)
	for i := 0; i < 1600; i++ {
		c := 1.0
		if i < 100 {
			c = 0
		}
		if !f.parked || f.parkedC != math.Float64bits(c) {
			want++
		}
		f.AdvanceNoCapture(c)
	}
	if f.steps != want || want == 1600 {
		t.Fatalf("filter counted %d updates, %d of 1600 ran", f.steps, want)
	}
	before := obs.CorePIBeliefSteps.Load()
	if _, err := OptimizeClustering(goldenMarkov(t), 1, DefaultParams(), quickClustering); err != nil {
		t.Fatal(err)
	}
	if obs.CorePIBeliefSteps.Load() == before {
		t.Error("OptimizeClustering published no belief updates")
	}
}

// FuzzClosedTailMatchesWalk applies TestClosedTailMatchesWalk's check to
// a fuzzed law — an Empirical PMF over at most 64 slots, zero runs and
// mass at the last slot included — and a fuzzed clustering policy. The
// seeds are the trimodal law with the policy N = 1,17,411, C1 = 0.95,
// which a truncated tail once called non-renewing.
func FuzzClosedTailMatchesWalk(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 3}, uint16(0), uint16(16), uint16(393), 0.95, 1.0, 1.0)
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 3}, uint16(15), uint16(2), uint16(95), 0.377, 0.073, 1.1e-5)
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 255}, uint16(3), uint16(0), uint16(0), 1.0, 0.5, 0.0)
	f.Fuzz(func(t *testing.T, weights []byte, n1, hot, gap uint16, c1, c2, c3 float64) {
		if len(weights) > 64 {
			weights = weights[:64]
		}
		w := make([]float64, len(weights))
		for i, x := range weights {
			w[i] = float64(x)
		}
		d, err := dist.NewEmpirical(w)
		if err != nil {
			return
		}
		cp := ClusteringPolicy{N1: 1 + int(n1%512), C1: c1, C2: c2, C3: c3}
		cp.N2 = cp.N1 + int(hot%256)
		cp.N3 = cp.N2 + 1 + int(gap%1024)
		if cp.Validate() != nil {
			return
		}
		checkClosedTail(t, newPIEvaluator(d, DefaultParams()), d, cp)
	})
}
