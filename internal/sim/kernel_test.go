package sim

import (
	"math"
	"reflect"
	"testing"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
)

// kernelCase is one policy/info combination used by the equivalence tests.
type kernelCase struct {
	name      string
	info      Info
	newPolicy func() Policy
}

func kernelCases(t *testing.T) []kernelCase {
	t.Helper()
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := core.GreedyFI(d, 0.5, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	periodic, err := NewPeriodic(3, 7.5)
	if err != nil {
		t.Fatal(err)
	}
	return []kernelCase{
		{"greedy-fi", FullInfo, func() Policy { return &VectorFI{Vector: fi.Policy} }},
		{"vector-pi-tail", PartialInfo, func() Policy {
			return &VectorPI{Vector: core.Vector{Prefix: []float64{0, 0, 0, 0, 0, 0, 0, 0, 0.5}, Tail: 1}}
		}},
		{"vector-pi-zero-tail", PartialInfo, func() Policy {
			return &VectorPI{Vector: core.Vector{Prefix: []float64{0, 1, 0.25}, Tail: 0}}
		}},
		{"aggressive", FullInfo, func() Policy { return Aggressive{} }},
		{"periodic", FullInfo, func() Policy { return periodic }},
	}
}

func kernelBaseConfig(t *testing.T, kc kernelCase, newRecharge func() energy.Recharge, batteryCap float64, seed uint64) Config {
	t.Helper()
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Dist:        d,
		Params:      core.DefaultParams(),
		NewRecharge: newRecharge,
		NewPolicy:   func(int) Policy { return kc.newPolicy() },
		BatteryCap:  batteryCap,
		Slots:       50_000,
		Seed:        seed,
		Info:        kc.info,
	}
}

// TestKernelByteIdenticalDeterministicRecharge is the kernel's core
// contract: under deterministic recharge every field of Result — counts,
// QoM, and the floating-point battery totals — must match the reference
// engine bit for bit, for every compilable policy shape and for batteries
// both comfortable (K=100) and starved (K=7, exercising the Denied path).
func TestKernelByteIdenticalDeterministicRecharge(t *testing.T) {
	recharges := []struct {
		name string
		make func() energy.Recharge
	}{
		{"uniform-0.5", func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }},
		{"periodic-5-per-10", func() energy.Recharge { r, _ := energy.NewPeriodic(5, 10); return r }},
	}
	for _, kc := range kernelCases(t) {
		for _, rc := range recharges {
			for _, batteryCap := range []float64{7, 100} {
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := kernelBaseConfig(t, kc, rc.make, batteryCap, seed)

					cfg.Engine = EngineReference
					want, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s/%s K=%g: reference: %v", kc.name, rc.name, batteryCap, err)
					}
					cfg.Engine = EngineKernel
					got, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s/%s K=%g: kernel: %v", kc.name, rc.name, batteryCap, err)
					}
					// The Engine field is bookkeeping and differs by
					// construction; every physical field must still match.
					if got.Engine != EngineKernel || want.Engine != EngineReference {
						t.Fatalf("%s/%s K=%g seed=%d: engines %v/%v, want kernel/reference",
							kc.name, rc.name, batteryCap, seed, got.Engine, want.Engine)
					}
					got.Engine = want.Engine
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s K=%g seed=%d:\nkernel    %+v\nreference %+v",
							kc.name, rc.name, batteryCap, seed, got, want)
					}
				}
			}
		}
	}
}

// TestKernelAutoSelectsKernel checks that EngineAuto picks the kernel for
// an eligible config: its result must be byte-identical to the forced
// kernel (which in turn matches the reference by the test above).
func TestKernelAutoSelectsKernel(t *testing.T) {
	kc := kernelCases(t)[0]
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }
	cfg := kernelBaseConfig(t, kc, newRech, 100, 11)

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
	if !reflect.DeepEqual(auto, forced) {
		t.Errorf("auto %+v != forced kernel %+v", auto, forced)
	}
}

// TestKernelStatisticalEquivalenceBernoulli checks the stochastic-recharge
// contract: kernel and reference simulate the same process law, so across
// seeds the paired QoM differences must be centered on zero. The pairing
// (shared event and decision streams per seed) keeps the differences small
// and the test sharp.
func TestKernelStatisticalEquivalenceBernoulli(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }
	for _, kc := range kernelCases(t) {
		const seeds = 16
		var diffs []float64
		for seed := uint64(1); seed <= seeds; seed++ {
			cfg := kernelBaseConfig(t, kc, newRech, 100, seed)
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
		// 4-sigma band on the mean paired difference, with a floor for the
		// (common) case where the engines agree exactly on most seeds.
		tol := 4*sd/math.Sqrt(float64(len(diffs))) + 5e-3
		if math.Abs(mean) > tol {
			t.Errorf("%s: mean QoM difference %v exceeds %v (sd %v)", kc.name, mean, tol, sd)
		}
	}
}

// TestKernelForcedRejectsIneligible enumerates every fallback reason and
// checks EngineKernel refuses rather than silently degrading.
func TestKernelForcedRejectsIneligible(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }
	base := func() Config {
		return kernelBaseConfig(t, kernelCases(t)[0], newRech, 100, 1)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"multiple sensors", func(c *Config) { c.N = 2 }},
		{"fault injection", func(c *Config) { c.FailAt = map[int]int64{0: 10} }},
		{"stateful policy", func(c *Config) {
			c.NewPolicy = func(int) Policy { return &EBCW{PYes: 0.9, PNo: 0.1} }
		}},
		{"vector-fi without full info", func(c *Config) { c.Info = PartialInfo }},
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
		// EngineAuto must still run the same config via a fallback path.
		cfg.Engine = EngineAuto
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: auto fallback failed: %v", tc.name, err)
		}
	}
}

// TestParseEngine covers the flag mapping.
func TestParseEngine(t *testing.T) {
	for in, want := range map[string]Engine{"auto": EngineAuto, "on": EngineKernel, "off": EngineReference, "batch": EngineBatch} {
		got, err := ParseEngine(in)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseEngine("fast"); err == nil {
		t.Error("ParseEngine accepted an unknown engine")
	}
}
