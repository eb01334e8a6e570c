package sim

import (
	"math"
	"reflect"
	"testing"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/obs"
	"eventcap/internal/trace"
)

// multiKernelConfig is kernelBaseConfig lifted to a round-robin fleet:
// the same policy on every sensor, deciding in turn over one PoI.
func multiKernelConfig(t *testing.T, kc kernelCase, newRecharge func() energy.Recharge, n int, batteryCap float64, seed uint64) Config {
	t.Helper()
	cfg := kernelBaseConfig(t, kc, newRecharge, batteryCap, seed)
	cfg.N = n
	cfg.Mode = ModeRoundRobin
	return cfg
}

// TestMultiKernelByteIdenticalDeterministicRecharge is the fleet version
// of the kernel's core contract: under deterministic recharge every field
// of Result — per-sensor counts, QoM, and the floating-point battery
// totals — must match the reference engine bit for bit, for every
// compilable policy shape, fleet sizes 2/4/8, and batteries both
// comfortable and starved.
func TestMultiKernelByteIdenticalDeterministicRecharge(t *testing.T) {
	recharges := []struct {
		name string
		make func() energy.Recharge
	}{
		{"uniform-0.5", func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }},
		{"periodic-5-per-10", func() energy.Recharge { r, _ := energy.NewPeriodic(5, 10); return r }},
	}
	for _, kc := range kernelCases(t) {
		for _, rc := range recharges {
			for _, n := range []int{2, 4, 8} {
				for _, batteryCap := range []float64{7, 100} {
					for seed := uint64(1); seed <= 3; seed++ {
						cfg := multiKernelConfig(t, kc, rc.make, n, batteryCap, seed)

						cfg.Engine = EngineReference
						want, err := Run(cfg)
						if err != nil {
							t.Fatalf("%s/%s N=%d K=%g: reference: %v", kc.name, rc.name, n, batteryCap, err)
						}
						cfg.Engine = EngineKernel
						got, err := Run(cfg)
						if err != nil {
							t.Fatalf("%s/%s N=%d K=%g: kernel: %v", kc.name, rc.name, n, batteryCap, err)
						}
						if got.Engine != EngineKernel || want.Engine != EngineReference {
							t.Fatalf("%s/%s N=%d K=%g seed=%d: engines %v/%v, want kernel/reference",
								kc.name, rc.name, n, batteryCap, seed, got.Engine, want.Engine)
						}
						got.Engine = want.Engine
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s/%s N=%d K=%g seed=%d:\nkernel    %+v\nreference %+v",
								kc.name, rc.name, n, batteryCap, seed, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMultiKernelAutoSelectsKernel checks that EngineAuto now routes an
// eligible round-robin fleet through the multi kernel.
func TestMultiKernelAutoSelectsKernel(t *testing.T) {
	kc := kernelCases(t)[0]
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }
	cfg := multiKernelConfig(t, kc, newRech, 4, 100, 11)

	cfg.Engine = EngineKernel
	forced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = EngineAuto
	auto, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Engine != EngineKernel {
		t.Fatalf("auto selected %v, want kernel", auto.Engine)
	}
	if !reflect.DeepEqual(auto, forced) {
		t.Errorf("auto %+v != forced kernel %+v", auto, forced)
	}
}

// TestMultiKernelStatisticalEquivalenceBernoulli checks the fleet
// stochastic-recharge contract on the fig6 shape: kernel and reference
// simulate the same process law, so across seeds the paired QoM
// differences must be centered on zero, and the shared event stream must
// never diverge.
func TestMultiKernelStatisticalEquivalenceBernoulli(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }
	for _, kc := range kernelCases(t) {
		const seeds = 16
		var diffs []float64
		for seed := uint64(1); seed <= seeds; seed++ {
			cfg := multiKernelConfig(t, kc, newRech, 4, 100, seed)
			cfg.Slots = 100_000

			cfg.Engine = EngineReference
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Engine = EngineKernel
			ker, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ker.Events != ref.Events {
				t.Fatalf("%s seed=%d: event streams diverged (%d vs %d)", kc.name, seed, ker.Events, ref.Events)
			}
			diffs = append(diffs, ker.QoM-ref.QoM)
		}
		var mean, sd float64
		for _, d := range diffs {
			mean += d
		}
		mean /= float64(len(diffs))
		for _, d := range diffs {
			sd += (d - mean) * (d - mean)
		}
		sd = math.Sqrt(sd / float64(len(diffs)-1))
		tol := 4*sd/math.Sqrt(float64(len(diffs))) + 5e-3
		if math.Abs(mean) > tol {
			t.Errorf("%s: mean QoM difference %v exceeds %v (sd %v)", kc.name, mean, tol, sd)
		}
	}
}

// TestMultiKernelMetricsInvariants runs an instrumented fleet and checks
// the miss decomposition and the kernel's slot accounting: fast-forwarded
// slots are counted once per run (not per sensor), so awake + skipped
// must still tile the horizon.
func TestMultiKernelMetricsInvariants(t *testing.T) {
	kc := kernelCases(t)[1] // vector-pi-tail: long sleep runs
	newRech := func() energy.Recharge { r, _ := energy.NewBernoulli(0.3, 1); return r }
	cfg := multiKernelConfig(t, kc, newRech, 8, 50, 5)
	cfg.Engine = EngineKernel
	cfg.Metrics = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m == nil {
		t.Fatal("metrics requested but nil")
	}
	if got := res.Captures + m.MissAsleep + m.MissNoEnergy; got != res.Events {
		t.Errorf("captures+missAsleep+missNoEnergy = %d, want events %d", got, res.Events)
	}
	if m.KernelRuns == 0 || m.KernelSlotsFastForwarded == 0 {
		t.Error("fleet kernel reported no fast-forwarded runs")
	}
	awake := res.Slots - m.KernelSlotsFastForwarded
	if awake < 0 {
		t.Fatalf("fast-forwarded %d slots out of %d", m.KernelSlotsFastForwarded, res.Slots)
	}
	if m.ObservedSlots != awake/batterySampleStride {
		t.Errorf("observed %d battery samples, want awake %d / stride %d = %d",
			m.ObservedSlots, awake, batterySampleStride, awake/batterySampleStride)
	}
}

// TestMultiKernelForcedRejectsIneligible enumerates the fleet-specific
// fallback reasons: EngineKernel must refuse, EngineAuto must still run
// the configuration on a fallback path.
func TestMultiKernelForcedRejectsIneligible(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }
	base := func() Config {
		return multiKernelConfig(t, kernelCases(t)[0], newRech, 4, 100, 1)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"mode-blocks", func(c *Config) { c.Mode = ModeBlocks; c.BlockLen = 5 }},
		{"mode-all-full-info", func(c *Config) { c.Mode = ModeAll }},
		{"tracer", func(c *Config) { c.Tracer = trace.New(nil, trace.NewFlightRecorder(32)) }},
		{"fault injection", func(c *Config) { c.FailAt = map[int]int64{1: 10} }},
		{"per-sensor policy mismatch", func(c *Config) {
			c.Info = PartialInfo
			c.NewPolicy = func(s int) Policy {
				return &VectorPI{Vector: core.Vector{Prefix: []float64{0, 0.25 * float64(s+1)}, Tail: 1}}
			}
		}},
		{"non-fast-forward recharge", func(c *Config) {
			c.NewRecharge = func() energy.Recharge { r, _ := energy.NewClippedGaussian(0.5, 0.1); return r }
		}},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		cfg.Engine = EngineKernel
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: forced kernel did not reject", tc.name)
		}
		cfg.Engine = EngineAuto
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: auto fallback failed: %v", tc.name, err)
		}
	}
}

// independentKernelConfig is a decoupled fleet (ModeAll + PartialInfo)
// with a compilable per-sensor policy, eligible for the per-sensor
// compiled loop inside runIndependent.
func independentKernelConfig(t *testing.T, newRecharge func() energy.Recharge, n int, seed uint64) Config {
	t.Helper()
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Dist:        d,
		Params:      core.DefaultParams(),
		NewRecharge: newRecharge,
		NewPolicy: func(int) Policy {
			return &VectorPI{Vector: core.Vector{Prefix: []float64{0, 0, 0, 0, 0.5}, Tail: 1}}
		},
		N:          n,
		Mode:       ModeAll,
		Info:       PartialInfo,
		BatteryCap: 50,
		Slots:      50_000,
		Seed:       seed,
	}
}

// TestIndependentKernelByteIdenticalInterpreted pins the decoupled-fleet
// contract: under deterministic recharge the compiled per-sensor loop
// must reproduce the interpreted independent engine bit for bit — same
// stream layout, same draw consumption, same union aggregation.
func TestIndependentKernelByteIdenticalInterpreted(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.4); return r }
	for _, n := range []int{2, 5} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := independentKernelConfig(t, newRech, n, seed)

			cfg.Engine = EngineReference
			want, err := Run(cfg)
			if err != nil {
				t.Fatalf("N=%d seed=%d: reference: %v", n, seed, err)
			}
			cfg.Engine = EngineKernel
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("N=%d seed=%d: kernel: %v", n, seed, err)
			}
			if got.Engine != EngineKernel || want.Engine != EngineReference {
				t.Fatalf("N=%d seed=%d: engines %v/%v, want kernel/reference", n, seed, got.Engine, want.Engine)
			}
			got.Engine = want.Engine
			if !reflect.DeepEqual(got, want) {
				t.Errorf("N=%d seed=%d:\ncompiled    %+v\ninterpreted %+v", n, seed, got, want)
			}
		}
	}
}

// TestIndependentKernelEqualInLawBernoulli is the stochastic counterpart:
// paired seeds, shared event trajectories, QoM differences centered on
// zero.
func TestIndependentKernelEqualInLawBernoulli(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewBernoulli(0.4, 1); return r }
	const seeds = 16
	var diffs []float64
	for seed := uint64(1); seed <= seeds; seed++ {
		cfg := independentKernelConfig(t, newRech, 3, seed)

		cfg.Engine = EngineReference
		ref, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = EngineKernel
		ker, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ker.Events != ref.Events {
			t.Fatalf("seed=%d: event streams diverged (%d vs %d)", seed, ker.Events, ref.Events)
		}
		diffs = append(diffs, ker.QoM-ref.QoM)
	}
	var mean, sd float64
	for _, d := range diffs {
		mean += d
	}
	mean /= float64(len(diffs))
	for _, d := range diffs {
		sd += (d - mean) * (d - mean)
	}
	sd = math.Sqrt(sd / float64(len(diffs)-1))
	tol := 4*sd/math.Sqrt(float64(len(diffs))) + 5e-3
	if math.Abs(mean) > tol {
		t.Errorf("mean QoM difference %v exceeds %v (sd %v)", mean, tol, sd)
	}
}

// TestIndependentKernelFaultTruncation checks fault injection stays
// eligible on the compiled independent path and truncates exactly like
// the interpreted loop: a sensor failing at slot F simulates F-1 slots.
func TestIndependentKernelFaultTruncation(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.4); return r }
	cfg := independentKernelConfig(t, newRech, 3, 9)
	cfg.FailAt = map[int]int64{1: 1000}

	cfg.Engine = EngineReference
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = EngineKernel
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got.Engine = want.Engine
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fault run:\ncompiled    %+v\ninterpreted %+v", got, want)
	}
	healthy := cfg
	healthy.FailAt = nil
	healthy.Engine = EngineKernel
	full, err := Run(healthy)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sensors[1].Activations >= full.Sensors[1].Activations {
		t.Errorf("failed sensor activated %d times, healthy run %d — truncation had no effect",
			got.Sensors[1].Activations, full.Sensors[1].Activations)
	}
}

// TestEngineFallbackCounters checks that declined EngineAuto dispatches
// surface as sim.engine.fallback.* observability counters.
func TestEngineFallbackCounters(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }
	probe := func(name string, mutate func(*Config)) float64 {
		t.Helper()
		cfg := multiKernelConfig(t, kernelCases(t)[0], newRech, 3, 100, 1)
		cfg.Slots = 2000
		mutate(&cfg)
		cfg.Engine = EngineAuto
		before := obs.Snapshot()
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return obs.Diff(before, obs.Snapshot())["sim.engine.fallback."+name]
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"mode", func(c *Config) { c.Mode = ModeBlocks; c.BlockLen = 5 }},
		{"fault", func(c *Config) { c.FailAt = map[int]int64{0: 10} }},
		{"tracer", func(c *Config) { c.Tracer = trace.New(nil, trace.NewFlightRecorder(32)) }},
		{"mismatch", func(c *Config) {
			c.Info = PartialInfo
			c.NewPolicy = func(s int) Policy {
				return &VectorPI{Vector: core.Vector{Prefix: []float64{0, 0.25 * float64(s+1)}, Tail: 1}}
			}
		}},
		{"policy", func(c *Config) {
			// Independent fleet whose policy cannot compile: falls back to
			// the interpreted independent engine with the policy reason.
			c.Mode = ModeAll
			c.Info = PartialInfo
			c.NewPolicy = func(int) Policy { return &EBCW{PYes: 0.9, PNo: 0.1} }
		}},
	}
	for _, tc := range cases {
		if got := probe(tc.name, tc.mutate); got < 1 {
			t.Errorf("sim.engine.fallback.%s did not increment (diff %v)", tc.name, got)
		}
	}
	// An eligible fleet must not record any fallback.
	cfg := multiKernelConfig(t, kernelCases(t)[0], newRech, 3, 100, 1)
	cfg.Slots = 2000
	cfg.Engine = EngineAuto
	before := obs.Snapshot()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	diff := obs.Diff(before, obs.Snapshot())
	for k, v := range diff {
		if v > 0 && len(k) > len("sim.engine.fallback.") && k[:len("sim.engine.fallback.")] == "sim.engine.fallback." {
			t.Errorf("eligible fleet recorded fallback %s = %v", k, v)
		}
	}
}
