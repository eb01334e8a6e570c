package core

import (
	"errors"
	"math"
	"testing"

	"eventcap/internal/dist"
	"eventcap/internal/numeric"
	"eventcap/internal/obs"
)

func TestClusteringPolicyShape(t *testing.T) {
	cp := ClusteringPolicy{N1: 3, N2: 5, N3: 9, C1: 0.4, C2: 0.7, C3: 0.2}
	want := map[int]float64{
		1: 0, 2: 0, // cooling
		3: 0.4,           // hot entry
		4: 1,             // hot interior
		5: 0.7,           // hot exit
		6: 0, 7: 0, 8: 0, // second cooling
		9:  0.2,      // recovery entry
		10: 1, 50: 1, // aggressive tail
	}
	for i, w := range want {
		if got := cp.At(i); got != w {
			t.Errorf("At(%d) = %v, want %v", i, got, w)
		}
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Vector materialization agrees with At everywhere.
	v := cp.Vector()
	for i := 0; i <= 60; i++ {
		if v.At(i) != cp.At(i) {
			t.Fatalf("Vector.At(%d) = %v, policy At = %v", i, v.At(i), cp.At(i))
		}
	}
}

func TestClusteringPolicySingleSlotHot(t *testing.T) {
	cp := ClusteringPolicy{N1: 4, N2: 4, N3: 6, C1: 0.5, C2: 0.9, C3: 1}
	if got := cp.At(4); got != 0.5 {
		t.Fatalf("single-slot hot region must use C1, got %v", got)
	}
	if got := cp.At(5); got != 0 {
		t.Fatalf("cooling after single-slot hot, got %v", got)
	}
}

func TestClusteringValidate(t *testing.T) {
	bad := []ClusteringPolicy{
		{N1: 0, N2: 1, N3: 2},
		{N1: 3, N2: 2, N3: 5},
		{N1: 1, N2: 4, N3: 4},
		{N1: 1, N2: 2, N3: 3, C1: -0.1},
		{N1: 1, N2: 2, N3: 3, C2: 1.4},
	}
	for _, cp := range bad {
		if err := cp.Validate(); err == nil {
			t.Errorf("invalid policy accepted: %+v", cp)
		}
	}
}

func TestEvaluatePIAlwaysOn(t *testing.T) {
	d := mustWeibull(t, 20, 3)
	p := DefaultParams()
	ev, err := EvaluatePI(d, p, func(int, float64) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.CaptureProb-1) > 1e-9 {
		t.Fatalf("always-on U = %v, want 1", ev.CaptureProb)
	}
	if math.Abs(ev.ExpectedCycle-d.Mean()) > 1e-6 {
		t.Fatalf("cycle %v, want μ=%v", ev.ExpectedCycle, d.Mean())
	}
	if want := p.SaturationRate(d.Mean()); math.Abs(ev.EnergyRate-want) > 1e-6 {
		t.Fatalf("energy rate %v, want %v", ev.EnergyRate, want)
	}
}

func TestEvaluatePINeverActivates(t *testing.T) {
	d := mustWeibull(t, 20, 3)
	_, err := EvaluatePI(d, DefaultParams(), func(int, float64) float64 { return 0 })
	if !errors.Is(err, ErrNoRenewal) {
		t.Fatalf("got %v, want ErrNoRenewal", err)
	}
}

// TestEvaluatePIDeterministicEvents: with X = d fixed and activation only
// in state d, every event is captured and the energy rate is exactly
// (δ1+δ2)/d.
func TestEvaluatePIDeterministicEvents(t *testing.T) {
	det, err := dist.NewDeterministic(5)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	ev, err := EvaluatePI(det, p, func(i int, _ float64) float64 {
		if i == 5 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.CaptureProb-1) > 1e-9 {
		t.Fatalf("U = %v, want 1", ev.CaptureProb)
	}
	if want := (p.Delta1 + p.Delta2) / 5; math.Abs(ev.EnergyRate-want) > 1e-9 {
		t.Fatalf("energy rate %v, want %v", ev.EnergyRate, want)
	}
}

// TestEvaluatePIGeometric: for memoryless events the hazard is constant,
// so activating with any fixed probability c captures a c-fraction of
// events... no: it captures each event iff active in that slot, i.e. with
// probability c, so U = c exactly.
func TestEvaluatePIGeometric(t *testing.T) {
	g, err := dist.NewGeometric(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{0.25, 0.5, 1} {
		c := c
		ev, err := EvaluatePI(g, DefaultParams(), func(int, float64) float64 { return c })
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ev.CaptureProb-c) > 1e-6 {
			t.Fatalf("c=%v: U = %v, want %v", c, ev.CaptureProb, c)
		}
	}
}

func TestOptimizeClusteringFeasibleAndStrong(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	p := DefaultParams()
	for _, e := range []float64{0.2, 0.5, 0.8} {
		res, err := OptimizeClustering(d, e, p, ClusteringOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.EnergyRate > e*(1+1e-6)+1e-9 {
			t.Fatalf("e=%v: energy rate %v exceeds budget", e, res.EnergyRate)
		}
		if err := res.Policy.Validate(); err != nil {
			t.Fatalf("e=%v: invalid policy: %v", e, err)
		}
		// Must beat the periodic and aggressive baselines (the paper's
		// Fig. 4 claim), with margin at moderate e.
		theta2, err := PeriodicTheta2(3, e, d, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.CaptureProb < PeriodicU(3, theta2) {
			t.Errorf("e=%v: clustering U=%v below periodic %v", e, res.CaptureProb, PeriodicU(3, theta2))
		}
		if res.CaptureProb < AggressiveU(d, e, p) {
			t.Errorf("e=%v: clustering U=%v below aggressive %v", e, res.CaptureProb, AggressiveU(d, e, p))
		}
		// FI optimum is an upper bound for any PI policy.
		fi, err := GreedyFI(d, e, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.CaptureProb > fi.CaptureProb+1e-6 {
			t.Errorf("e=%v: PI policy U=%v beats the FI optimum %v", e, res.CaptureProb, fi.CaptureProb)
		}
	}
}

func TestOptimizeClusteringMonotoneInRate(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	p := DefaultParams()
	prev := -1.0
	for _, e := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.1} {
		res, err := OptimizeClustering(d, e, p, ClusteringOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Allow a hair of search noise, but no real regressions.
		if res.CaptureProb < prev-1e-3 {
			t.Fatalf("U decreased at e=%v: %v -> %v", e, prev, res.CaptureProb)
		}
		prev = res.CaptureProb
	}
}

func TestOptimizeClusteringSaturated(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	p := DefaultParams()
	res, err := OptimizeClustering(d, p.SaturationRate(d.Mean())*1.01, p, ClusteringOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || res.CaptureProb != 1 {
		t.Fatalf("saturated result wrong: %+v", res)
	}
}

func TestOptimizeClusteringDeterministicEvents(t *testing.T) {
	det, err := dist.NewDeterministic(10)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	// Energy for exactly one activation per cycle plus 20% headroom.
	e := 1.2 * (p.Delta1 + p.Delta2) / 10
	res, err := OptimizeClustering(det, e, p, ClusteringOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CaptureProb < 1-1e-6 {
		t.Fatalf("U = %v, want 1 (deterministic events are fully capturable)", res.CaptureProb)
	}
}

func TestOptimizeClusteringLowEnergyUsesCooling(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	p := DefaultParams()
	res, err := OptimizeClustering(d, 0.05, p, ClusteringOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyRate > 0.05*(1+1e-6)+1e-9 {
		t.Fatalf("energy rate %v exceeds tiny budget", res.EnergyRate)
	}
	if res.Policy.N3 <= res.Policy.N2+1 {
		t.Fatalf("low-energy policy should open a cooling gap, got %+v", res.Policy)
	}
}

func TestOptimizeClusteringErrors(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	if _, err := OptimizeClustering(d, -0.1, DefaultParams(), ClusteringOptions{}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := OptimizeClustering(d, 0.5, Params{}, ClusteringOptions{}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// bisectBoundary is the boundary search maxBoundaryProb replaces:
// numeric.MaximizeMonotoneBudget over eval's EnergyRate.
func bisectBoundary(eval func(c float64) (*PIEval, error), budget float64) (float64, bool) {
	return numeric.MaximizeMonotoneBudget(func(c float64) float64 {
		ev, err := eval(c)
		if err != nil {
			return math.Inf(1)
		}
		return ev.EnergyRate
	}, budget, 1e-6)
}

// TestBoundaryCrossingMatchesBisection runs the golden solves —
// OptimizeClustering on the three golden laws at their rates and both
// quick gaps, and the trimodal RefineWindows case — and checks every
// boundary search that refineFractional and respendOnBoundary make
// against the bisection, bit for bit. None may fall back.
func TestBoundaryCrossingMatchesBisection(t *testing.T) {
	searches := 0
	testHookBoundary = func(eval func(float64) (*PIEval, error), budget, c float64, feasible bool) {
		searches++
		wc, wok := bisectBoundary(eval, budget)
		if math.Float64bits(c) != math.Float64bits(wc) || feasible != wok {
			t.Errorf("boundary search %d: closed form (%v, %t), bisection (%v, %t)", searches, c, feasible, wc, wok)
		}
	}
	defer func() { testHookBoundary = nil }()
	fallbacks := obs.CorePIBudgetFallbacks.Load()

	p := DefaultParams()
	for _, s := range []struct {
		d     dist.Interarrival
		rates []float64
	}{
		{mustWeibull(t, 40, 3), []float64{0.1, 0.5, 1.2}},
		{mustPareto(t, 2, 10), []float64{0.25, 0.75, 1.25}},
		{goldenMarkov(t), []float64{0.5, 1, 1.5}},
	} {
		for _, e := range s.rates {
			for _, o := range goldenSolveOptions(s.d) {
				if _, err := OptimizeClustering(s.d, e, p, o); err != nil {
					t.Fatalf("%s e=%g %+v: %v", s.d.Name(), e, o, err)
				}
			}
		}
	}
	d := mustEmpirical(t, []float64{0.3, 0, 0, 0, 0, 0, 0, 0.4, 0, 0, 0, 0, 0, 0, 0, 0, 0.3})
	base, err := OptimizeClustering(d, 0.15, p, ClusteringOptions{CoarsePoints: 8, MaxGap: 512})
	if err != nil {
		t.Fatal(err)
	}
	before := searches
	if _, err := RefineWindows(d, 0.15, p, base, 2); err != nil {
		t.Fatal(err)
	}
	if searches == before {
		t.Error("RefineWindows made no boundary search")
	}
	if n := obs.CorePIBudgetFallbacks.Load() - fallbacks; n != 0 {
		t.Errorf("%d of %d boundary searches fell back to bisection", n, searches)
	}
	t.Logf("%d boundary searches", searches)
}

// TestBoundaryCrossingSynthetic drives maxBoundaryProb with synthetic
// evaluations: each case must return what the bisection returns, bit
// for bit, and fall back exactly when the closed form cannot hold.
func TestBoundaryCrossingSynthetic(t *testing.T) {
	const b = 0.3
	// affine returns the evaluation of E(c) = e0 + c·(e1−e0) over
	// C(c) = c0 + c·(c1−c0): a ratio of affine sums, like a boundary
	// probability's f-chain.
	affine := func(c0, c1, e0, e1 float64) func(float64) (*PIEval, error) {
		return func(c float64) (*PIEval, error) {
			cyc := c0 + c*(c1-c0)
			return &PIEval{EnergyRate: (e0 + c*(e1-e0)) / cyc, ExpectedCycle: cyc}, nil
		}
	}
	for _, tc := range []struct {
		name      string
		eval      func(float64) (*PIEval, error)
		fallbacks int64
	}{
		{"affine", affine(40, 25, 8, 10), 0},
		{"cost(0) above budget", affine(40, 25, 16, 20), 0},
		{"cost(1) within budget", affine(40, 25, 4, 7), 0},
		// E/C equals b at c = 0: c* is 0 up to roundoff of either sign.
		{"crossing at c = 0", affine(10, 10, b*10, b*10+1), 0},
		// E/C crosses b at c = 2^-22, inside the first grid cell.
		{"first grid cell", affine(10, 10, b*10-1.0/(1<<22), b*10+1-1.0/(1<<22)), 0},
		// E/C crosses b inside the last grid cell.
		{"last grid cell", affine(10, 10, b*10-1+1.0/(1<<22), b*10+1.0/(1<<22)), 0},
		// c² is no ratio of affine sums: the endpoints predict c* = b,
		// the crossing is at √b.
		{"not affine", func(c float64) (*PIEval, error) {
			return &PIEval{EnergyRate: c * c, ExpectedCycle: 1}, nil
		}, 1},
		{"fails at c = 1", func(c float64) (*PIEval, error) {
			if c == 1 {
				return nil, ErrNoRenewal
			}
			return &PIEval{EnergyRate: c, ExpectedCycle: 1}, nil
		}, 1},
	} {
		pe := &piEvaluator{}
		c, ok := pe.maxBoundaryProb(tc.eval, b)
		wc, wok := bisectBoundary(tc.eval, b)
		if math.Float64bits(c) != math.Float64bits(wc) || ok != wok {
			t.Errorf("%s: closed form (%v, %t), bisection (%v, %t)", tc.name, c, ok, wc, wok)
		}
		if pe.fallbacks != tc.fallbacks {
			t.Errorf("%s: %d fallbacks, want %d", tc.name, pe.fallbacks, tc.fallbacks)
		}
	}
}
