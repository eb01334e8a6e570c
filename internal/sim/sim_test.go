package sim

import (
	"math"
	"testing"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/rng"
)

func mustWeibull(t testing.TB, scale, shape float64) *dist.Weibull {
	t.Helper()
	w, err := dist.NewWeibull(scale, shape)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func bernoulliFactory(t testing.TB, q, c float64) func() energy.Recharge {
	t.Helper()
	return func() energy.Recharge {
		r, err := energy.NewBernoulli(q, c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

func constantFactory(t testing.TB, e float64) func() energy.Recharge {
	t.Helper()
	return func() energy.Recharge {
		r, err := energy.NewConstant(e)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

func baseConfig(t testing.TB) Config {
	return Config{
		Dist:        mustWeibull(t, 40, 3),
		Params:      core.DefaultParams(),
		NewRecharge: constantFactory(t, 0.5),
		NewPolicy:   func(int) Policy { return Aggressive{} },
		BatteryCap:  1000,
		Slots:       200000,
		Seed:        1,
	}
}

func TestRunValidation(t *testing.T) {
	good := baseConfig(t)
	cases := map[string]func(*Config){
		"nil dist":       func(c *Config) { c.Dist = nil },
		"nil recharge":   func(c *Config) { c.NewRecharge = nil },
		"nil policy":     func(c *Config) { c.NewPolicy = nil },
		"bad params":     func(c *Config) { c.Params = core.Params{} },
		"negative N":     func(c *Config) { c.N = -2 },
		"zero battery":   func(c *Config) { c.BatteryCap = 0 },
		"zero slots":     func(c *Config) { c.Slots = 0 },
		"blocks w/o len": func(c *Config) { c.Mode = ModeBlocks },
		// A FailAt key outside [0, N) names no sensor; skipping it would
		// run fault-free while still declining the kernel.
		"FailAt past N":     func(c *Config) { c.FailAt = map[int]int64{1: 100} },
		"FailAt negative":   func(c *Config) { c.N = 2; c.FailAt = map[int]int64{0: 50, -1: 100} },
		"batch FailAt >= N": func(c *Config) { c.Batch = 4; c.FailAt = map[int]int64{3: 100} },
	}
	for name, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	if _, err := Run(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Slots = 50000
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.QoM != r2.QoM || r1.Events != r2.Events || r1.Captures != r2.Captures {
		t.Fatalf("same seed, different results: %+v vs %+v", r1, r2)
	}
	cfg.Seed = 2
	r3, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Captures == r1.Captures && r3.Events == r1.Events {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestEventRateMatchesDistribution(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Slots = 500000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotRate := float64(res.Events) / float64(res.Slots)
	wantRate := 1 / cfg.Dist.Mean()
	if math.Abs(gotRate-wantRate) > 0.03*wantRate {
		t.Fatalf("event rate %v, want %v", gotRate, wantRate)
	}
}

// TestEnergyConservation: total consumption cannot exceed initial charge
// plus received recharge.
func TestEnergyConservation(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Slots = 100000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sensors[0]
	maxBudget := cfg.BatteryCap/2 + 0.5*float64(cfg.Slots)
	if s.EnergyConsumed > maxBudget {
		t.Fatalf("consumed %v exceeds available %v", s.EnergyConsumed, maxBudget)
	}
	wantEnergy := float64(s.Activations)*1 + float64(s.Captures)*6
	if math.Abs(s.EnergyConsumed-wantEnergy) > 1e-6 {
		t.Fatalf("consumed %v, accounting says %v", s.EnergyConsumed, wantEnergy)
	}
}

// TestAggressiveMatchesAnalytic: the aggressive baseline's QoM should be
// near e/(δ1+δ2/μ) (core.AggressiveU). The estimate has a known downward
// bias: the δ2 drain after each capture phase-locks the battery's sleep
// slots into the low-hazard region, so the simulated QoM runs a few
// points above the line.
func TestAggressiveMatchesAnalytic(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Slots = 1000000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := core.AggressiveU(cfg.Dist, 0.5, cfg.Params)
	if res.QoM < want-0.03 || res.QoM > want+0.12 {
		t.Fatalf("aggressive QoM %v, analytic %v", res.QoM, want)
	}
}

// TestGreedyFIApproachesTheory is the core asymptotic claim (Fig. 3a):
// with a large battery, the simulated QoM of π*_FI approaches the
// analytic U(π*_FI).
func TestGreedyFIApproachesTheory(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	p := core.DefaultParams()
	fi, err := core.GreedyFI(d, 0.5, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Dist:        d,
		Params:      p,
		NewRecharge: bernoulliFactory(t, 0.5, 1),
		NewPolicy:   func(int) Policy { return &VectorFI{Vector: fi.Policy} },
		BatteryCap:  1000,
		Slots:       1000000,
		Seed:        7,
		Info:        FullInfo,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.QoM-fi.CaptureProb) > 0.02 {
		t.Fatalf("simulated QoM %v, theory %v", res.QoM, fi.CaptureProb)
	}
}

// TestClusteringPIApproachesTheory: same asymptotic property for the
// partial-information clustering policy (Fig. 3b).
func TestClusteringPIApproachesTheory(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	p := core.DefaultParams()
	pi, err := core.OptimizeClustering(d, 0.5, p, core.ClusteringOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Dist:        d,
		Params:      p,
		NewRecharge: bernoulliFactory(t, 0.5, 1),
		NewPolicy:   func(int) Policy { return &VectorPI{Vector: pi.Vector} },
		BatteryCap:  1000,
		Slots:       1000000,
		Seed:        8,
		Info:        PartialInfo,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.QoM-pi.CaptureProb) > 0.03 {
		t.Fatalf("simulated QoM %v, theory %v", res.QoM, pi.CaptureProb)
	}
}

// TestSmallBatteryHurts: QoM with K = activation cost is strictly worse
// than with K = 1000 for the same policy (the Fig. 3 shape).
func TestSmallBatteryHurts(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	p := core.DefaultParams()
	fi, err := core.GreedyFI(d, 0.5, p)
	if err != nil {
		t.Fatal(err)
	}
	run := func(capK float64) float64 {
		cfg := Config{
			Dist:        d,
			Params:      p,
			NewRecharge: bernoulliFactory(t, 0.5, 1),
			NewPolicy:   func(int) Policy { return &VectorFI{Vector: fi.Policy} },
			BatteryCap:  capK,
			Slots:       400000,
			Seed:        9,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.QoM
	}
	small, large := run(7), run(1000)
	if small >= large-0.02 {
		t.Fatalf("tiny battery QoM %v not clearly below large-battery %v", small, large)
	}
}

func TestPeriodicPolicyPattern(t *testing.T) {
	p, err := NewPeriodic(3, 9.2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Theta2 != 10 {
		t.Fatalf("θ2 = %d, want ceil(9.2) = 10", p.Theta2)
	}
	active := 0
	for t1 := int64(1); t1 <= 10; t1++ {
		if p.ActivationProb(SlotState{Slot: t1}) == 1 {
			active++
		}
	}
	if active != 3 {
		t.Fatalf("%d active slots per period, want 3", active)
	}
	if _, err := NewPeriodic(0, 5); err == nil {
		t.Fatal("θ1=0 accepted")
	}
	// θ2 below θ1 clamps.
	p2, err := NewPeriodic(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Theta2 != 3 {
		t.Fatalf("θ2 = %d, want clamp to θ1", p2.Theta2)
	}
}

func TestVectorFIFailsSafeWithoutInformation(t *testing.T) {
	v := &VectorFI{Vector: core.Vector{Tail: 1}}
	if got := v.ActivationProb(SlotState{SinceEvent: -1}); got != 0 {
		t.Fatalf("FI policy without information should sleep, got %v", got)
	}
}

func TestEBCWRuntimeStateMachine(t *testing.T) {
	e := &EBCW{PYes: 0.9, PNo: 0.1}
	e.Reset()
	if e.ActivationProb(SlotState{}) != 0.9 {
		t.Fatal("initial state should assume a captured event")
	}
	e.Observe(Outcome{Active: true, EventKnown: true, Event: false})
	if e.ActivationProb(SlotState{}) != 0.1 {
		t.Fatal("no-event observation should switch to PNo")
	}
	// Inactive slots must not change the memory.
	e.Observe(Outcome{Active: false})
	if e.ActivationProb(SlotState{}) != 0.1 {
		t.Fatal("inactive slot changed the observation memory")
	}
	e.Observe(Outcome{Active: true, EventKnown: true, Event: true})
	if e.ActivationProb(SlotState{}) != 0.9 {
		t.Fatal("event observation should switch to PYes")
	}
}

func TestBatteryGateDeniesWhenEmpty(t *testing.T) {
	cfg := baseConfig(t)
	cfg.NewRecharge = constantFactory(t, 0.01) // starved
	cfg.BatteryCap = 7
	cfg.Slots = 10000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sensors[0].Denied == 0 {
		t.Fatal("starved aggressive sensor was never denied")
	}
	// It can spend at most its initial K/2 plus what it harvested.
	if res.Sensors[0].EnergyConsumed > cfg.BatteryCap/2+0.01*float64(cfg.Slots)+1e-9 {
		t.Fatal("sensor spent energy it never had")
	}
}

// newTestSource builds a deterministic RNG for test helpers.
func newTestSource(t testing.TB) *rng.Source {
	t.Helper()
	return rng.New(123, 77)
}
