package sim

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"eventcap/internal/core"
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

// fleetMode is one coordination the fleet kernel compiles: round-robin,
// or blocks of blockLen slots rotating across the sensors. Blocks of one
// slot are round-robin under the other mode; 8 is the θ2 of the
// periodic(3/8) kernel case, so its blocks align with the policy's
// phase, and 3 and 10 do not.
type fleetMode struct {
	name     string
	mode     Mode
	blockLen int
}

var fleetModes = []fleetMode{
	{"roundrobin", ModeRoundRobin, 0},
	{"blocks-1", ModeBlocks, 1},
	{"blocks-3", ModeBlocks, 3},
	{"blocks-8", ModeBlocks, 8},
	{"blocks-10", ModeBlocks, 10},
}

// apply sets cfg's coordination to the mode's.
func (fm fleetMode) apply(cfg *Config) {
	cfg.Mode, cfg.BlockLen = fm.mode, fm.blockLen
}

// TestMultiKernelByteIdenticalDeterministicRecharge is the fleet version
// of the kernel's core contract: under deterministic recharge every field
// of Result — per-sensor counts, QoM, and the floating-point battery
// totals — must match the reference engine bit for bit, for every
// compilable policy shape, every fleetModes coordination (one parallel
// subtest each), fleet sizes 2/4/8, and batteries both comfortable and
// starved.
func TestMultiKernelByteIdenticalDeterministicRecharge(t *testing.T) {
	recharges := []struct {
		name string
		make func() energy.Recharge
	}{
		{"uniform-0.5", func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }},
		{"periodic-5-per-10", func() energy.Recharge { r, _ := energy.NewPeriodic(5, 10); return r }},
	}
	for _, fm := range fleetModes {
		t.Run(fm.name, func(t *testing.T) {
			t.Parallel()
			for _, kc := range kernelCases(t) {
				for _, rc := range recharges {
					for _, n := range []int{2, 4, 8} {
						for _, batteryCap := range []float64{7, 100} {
							for seed := uint64(1); seed <= 3; seed++ {
								cfg := multiKernelConfig(t, kc, rc.make, n, batteryCap, seed)
								fm.apply(&cfg)
								name := fmt.Sprintf("%s/%s N=%d K=%g seed=%d", kc.name, rc.name, n, batteryCap, seed)

								cfg.Engine = EngineReference
								want, err := Run(cfg)
								if err != nil {
									t.Fatalf("%s: reference: %v", name, err)
								}
								cfg.Engine = EngineKernel
								got, err := Run(cfg)
								if err != nil {
									t.Fatalf("%s: kernel: %v", name, err)
								}
								if got.Engine != EngineKernel || want.Engine != EngineReference {
									t.Fatalf("%s: engines %v/%v, want kernel/reference", name, got.Engine, want.Engine)
								}
								t.Run(name, func(t *testing.T) { requireKernelMatchesReference(t, got, want) })
							}
						}
					}
				}
			}
		})
	}
}

// TestMultiKernelAutoSelectsKernel checks that EngineAuto routes an
// eligible round-robin or block fleet through the fleet kernel.
func TestMultiKernelAutoSelectsKernel(t *testing.T) {
	kc := kernelCases(t)[0]
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }
	for _, fm := range []fleetMode{fleetModes[0], {"blocks-5", ModeBlocks, 5}} {
		cfg := multiKernelConfig(t, kc, newRech, 4, 100, 11)
		fm.apply(&cfg)

		cfg.Engine = EngineKernel
		forced, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", fm.name, err)
		}
		cfg.Engine = EngineAuto
		auto, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", fm.name, err)
		}
		if auto.Engine != EngineKernel {
			t.Fatalf("%s: auto selected %v, want kernel", fm.name, auto.Engine)
		}
		if !reflect.DeepEqual(auto, forced) {
			t.Errorf("%s: auto %+v != forced kernel %+v", fm.name, auto, forced)
		}
	}
}

// TestMultiKernelStatisticalEquivalenceBernoulli checks the fleet
// stochastic-recharge contract on the fig6 shape, for every fleetModes
// coordination (one parallel subtest each): kernel and reference
// simulate the same process law, so across seeds the paired QoM
// differences must be centered on zero, and the shared event stream must
// never diverge.
func TestMultiKernelStatisticalEquivalenceBernoulli(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }
	for _, fm := range fleetModes {
		t.Run(fm.name, func(t *testing.T) {
			t.Parallel()
			for _, kc := range kernelCases(t) {
				const seeds = 16
				var diffs []float64
				for seed := uint64(1); seed <= seeds; seed++ {
					cfg := multiKernelConfig(t, kc, newRech, 4, 100, seed)
					fm.apply(&cfg)
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
		})
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
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
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
		{"mode-all-full-info", func(c *Config) { c.Mode = ModeAll }},
		{"tracer", func(c *Config) { c.Tracer = trace.NewWriter(io.Discard) }},
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

// TestEngineFallbackCounters checks that declined EngineAuto dispatches
// surface as sim.engine.fallback.* observability counters, one per Run
// call: a batch's replications share its one dispatch.
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
		slug   string
		mutate func(*Config)
	}{
		{"decoupled", "mode", func(c *Config) {
			// Uncoordinated partial-information fleet: the kernel declines
			// it for its mode, and it runs on the reference engine.
			c.Mode = ModeAll
			c.Info = PartialInfo
		}},
		{"fault", "fault", func(c *Config) { c.FailAt = map[int]int64{0: 10} }},
		{"tracer", "tracer", func(c *Config) { c.Tracer = trace.NewWriter(io.Discard) }},
		{"mismatch", "mismatch", func(c *Config) {
			c.Info = PartialInfo
			c.NewPolicy = func(s int) Policy {
				return &VectorPI{Vector: core.Vector{Prefix: []float64{0, 0.25 * float64(s+1)}, Tail: 1}}
			}
		}},
		{"policy", "policy", func(c *Config) {
			// Round-robin fleet whose policy cannot compile.
			c.NewPolicy = func(int) Policy { return &EBCW{PYes: 0.9, PNo: 0.1} }
		}},
		{"batched policy", "policy", func(c *Config) {
			c.NewPolicy = func(int) Policy { return &EBCW{PYes: 0.9, PNo: 0.1} }
			c.Batch = 4
		}},
	}
	for _, tc := range cases {
		if got := probe(tc.slug, tc.mutate); got != 1 {
			t.Errorf("%s: sim.engine.fallback.%s moved by %v, want 1", tc.name, tc.slug, got)
		}
	}
	// Eligible fleets, round-robin or in blocks, must not record any
	// fallback.
	for _, fm := range []fleetMode{fleetModes[0], {"blocks-5", ModeBlocks, 5}} {
		cfg := multiKernelConfig(t, kernelCases(t)[0], newRech, 3, 100, 1)
		fm.apply(&cfg)
		cfg.Slots = 2000
		cfg.Engine = EngineAuto
		before := obs.Snapshot()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		diff := obs.Diff(before, obs.Snapshot())
		for k, v := range diff {
			if v > 0 && len(k) > len("sim.engine.fallback.") && k[:len("sim.engine.fallback.")] == "sim.engine.fallback." {
				t.Errorf("eligible %s fleet recorded fallback %s = %v", fm.name, k, v)
			}
		}
	}
}
