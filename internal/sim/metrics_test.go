package sim

import (
	"reflect"
	"testing"

	"eventcap/internal/energy"
)

// engineCase is one execution path of Run under the observer-neutrality
// suites. traced marks the cases whose engine accepts a Config.Tracer.
type engineCase struct {
	name   string
	cfg    Config
	traced bool
}

// engineCases spans every path the run observer serves: the sequential
// reference engine (single- and multi-sensor, coordinated modes, fault
// injection), the interpreted and compiled independent-sensor engines,
// the compiled kernel for a single sensor and a round-robin fleet, the
// batch engine (single sensor, fleet, independent fleet), and the
// per-replication batch fallback — with batteries both comfortable and
// starved (K=7 forces the energy gate, exercising MissNoEnergy).
func engineCases(t *testing.T) []engineCase {
	t.Helper()
	bernoulli := func() energy.Recharge {
		r, err := energy.NewBernoulli(0.5, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var cases []engineCase

	seq := baseConfig(t)
	seq.Slots = 30000
	seq.Engine = EngineReference
	cases = append(cases, engineCase{"reference-single", seq, true})

	starved := seq
	starved.BatteryCap = 7
	starved.NewRecharge = bernoulliFactory(t, 0.3, 1)
	cases = append(cases, engineCase{"reference-starved", starved, true})

	multi := seq
	multi.N = 3
	multi.Mode = ModeRoundRobin
	cases = append(cases, engineCase{"reference-roundrobin", multi, true})

	faulty := multi
	faulty.FailAt = map[int]int64{1: 5000}
	cases = append(cases, engineCase{"reference-faults", faulty, true})

	indep := seq
	indep.N = 3
	indep.Mode = ModeAll
	indep.Info = PartialInfo
	indep.Workers = 2
	cases = append(cases, engineCase{"independent", indep, true})

	indepCompiled := independentKernelConfig(t, bernoulli, 3, 5)
	indepCompiled.Engine = EngineKernel
	indepCompiled.Workers = 2
	cases = append(cases, engineCase{"independent-compiled", indepCompiled, false})

	kern := kernelBaseConfig(t, kernelCases(t)[0], bernoulli, 100, 1)
	kern.Engine = EngineKernel
	cases = append(cases, engineCase{"kernel", kern, true})

	fleet := multiKernelConfig(t, kernelCases(t)[0], func() energy.Recharge {
		r, err := energy.NewPeriodic(5, 10)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}, 4, 100, 2)
	fleet.Engine = EngineKernel
	cases = append(cases, engineCase{"kernel-fleet", fleet, false})

	batch := kernelBaseConfig(t, kernelCases(t)[0], bernoulli, 100, 7)
	batch.Slots = 20_000
	batch.Engine = EngineBatch
	batch.Batch = 16
	batch.Workers = 2
	cases = append(cases, engineCase{"batch", batch, false})

	batchFleet := multiKernelConfig(t, kernelCases(t)[0], bernoulli, 3, 100, 3)
	batchFleet.Slots = 20_000
	batchFleet.Engine = EngineBatch
	batchFleet.Batch = 8
	batchFleet.Workers = 2
	cases = append(cases, engineCase{"batch-fleet", batchFleet, false})

	batchIndep := independentKernelConfig(t, bernoulli, 3, 9)
	batchIndep.Slots = 20_000
	batchIndep.Engine = EngineBatch
	batchIndep.Batch = 8
	batchIndep.Workers = 2
	cases = append(cases, engineCase{"batch-independent", batchIndep, false})

	fallback := multi
	fallback.Batch = 3 // forced reference engine: sequential replications
	cases = append(cases, engineCase{"batch-fallback", fallback, false})

	return cases
}

// engineCaseConfig returns the named engineCases entry's configuration.
func engineCaseConfig(t *testing.T, name string) Config {
	t.Helper()
	for _, c := range engineCases(t) {
		if c.name == name {
			return c.cfg
		}
	}
	t.Fatalf("no engine case %q", name)
	return Config{}
}

// TestMetricsDoNotChangeResults is the RNG-neutrality contract of
// Config.Metrics: enabling collection must leave every other Result
// field byte-identical, on every execution path.
func TestMetricsDoNotChangeResults(t *testing.T) {
	for _, ec := range engineCases(t) {
		name, cfg := ec.name, ec.cfg
		cfg.Metrics = false
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.Metrics = true
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Metrics == nil {
			t.Fatalf("%s: Metrics requested but nil", name)
		}
		got.Metrics = nil // the only field allowed to differ
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: metrics changed the run:\nwith    %+v\nwithout %+v", name, got, want)
		}
	}
}

// TestMetricsEventAccounting checks the classification invariant
// Captures + MissAsleep + MissNoEnergy == Events and the battery
// histogram's consistency on every execution path.
func TestMetricsEventAccounting(t *testing.T) {
	for _, ec := range engineCases(t) {
		name, cfg := ec.name, ec.cfg
		cfg.Metrics = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := res.Metrics
		if got := res.Captures + m.MissAsleep + m.MissNoEnergy; got != res.Events {
			t.Errorf("%s: captures %d + asleep %d + noenergy %d = %d, want events %d",
				name, res.Captures, m.MissAsleep, m.MissNoEnergy, got, res.Events)
		}
		var histSum int64
		for _, n := range m.BatteryHist {
			histSum += n
		}
		if histSum != m.ObservedSlots {
			t.Errorf("%s: histogram sums to %d, want ObservedSlots %d", name, histSum, m.ObservedSlots)
		}
		if f := m.MeanBatteryFrac(); f < 0 || f > 1 {
			t.Errorf("%s: mean battery fraction %v outside [0,1]", name, f)
		}
		if res.Engine != EngineReference && m.KernelRuns == 0 {
			t.Errorf("%s: compiled run recorded no sleep runs", name)
		}
		perRun := res.Slots / batterySampleStride
		switch {
		case cfg.Batch > 1 || cfg.N > 1 && cfg.Mode == ModeAll && res.Engine == EngineKernel:
			// Occupancy is replication 0's (batches) or sensor 0's
			// awake slots (compiled independent sensors), while the
			// kernel counters sum over every replication and sensor.
			if m.ObservedSlots == 0 || m.ObservedSlots > perRun {
				t.Errorf("%s: observed %d slots, want within (0, %d]", name, m.ObservedSlots, perRun)
			}
		case res.Engine == EngineKernel:
			// The kernel samples every stride-th awake slot, and the
			// awake-slot count is exactly Slots − KernelSlotsFastForwarded.
			awake := res.Slots - m.KernelSlotsFastForwarded
			if want := awake / batterySampleStride; m.ObservedSlots != want {
				t.Errorf("%s: kernel observed %d slots, want %d (stride %d over %d awake)",
					name, m.ObservedSlots, want, batterySampleStride, awake)
			}
		default:
			if m.ObservedSlots != perRun {
				t.Errorf("%s: reference engine observed %d slots, want %d (stride %d over %d)",
					name, m.ObservedSlots, perRun, batterySampleStride, res.Slots)
			}
		}
	}
	// The starved configuration must actually exercise the energy gate,
	// or the MissNoEnergy path is untested.
	cfg := engineCaseConfig(t, "reference-starved")
	cfg.Metrics = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MissNoEnergy == 0 || res.Metrics.EnergyOutageSlots == 0 {
		t.Errorf("starved config saw no energy-gated misses (noenergy=%d outage=%d)",
			res.Metrics.MissNoEnergy, res.Metrics.EnergyOutageSlots)
	}
}

// TestKernelMetricsMatchReference: under deterministic recharge the
// kernel's miss decomposition and wasted-activation count must equal the
// reference engine's exactly — the fast-forward only skips slots where
// nothing observable happens.
func TestKernelMetricsMatchReference(t *testing.T) {
	newRech := func() energy.Recharge {
		r, err := energy.NewPeriodic(5, 10)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, kc := range kernelCases(t) {
		for _, batteryCap := range []float64{7, 100} {
			cfg := kernelBaseConfig(t, kc, newRech, batteryCap, 2)
			cfg.Metrics = true

			cfg.Engine = EngineReference
			ref, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s K=%g: reference: %v", kc.name, batteryCap, err)
			}
			cfg.Engine = EngineKernel
			ker, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s K=%g: kernel: %v", kc.name, batteryCap, err)
			}
			rm, km := ref.Metrics, ker.Metrics
			if rm.MissAsleep != km.MissAsleep || rm.MissNoEnergy != km.MissNoEnergy ||
				rm.WastedActivations != km.WastedActivations {
				t.Errorf("%s K=%g: kernel metrics diverge: asleep %d/%d noenergy %d/%d wasted %d/%d",
					kc.name, batteryCap, km.MissAsleep, rm.MissAsleep,
					km.MissNoEnergy, rm.MissNoEnergy, km.WastedActivations, rm.WastedActivations)
			}
		}
	}
}

func TestMetricsMerge(t *testing.T) {
	a := &Metrics{MissAsleep: 1, MissNoEnergy: 2, WastedActivations: 3, EnergyOutageSlots: 4,
		ObservedSlots: 5, BatteryFracSum: 1.5, KernelRuns: 6, KernelSlotsFastForwarded: 7}
	a.BatteryHist[0] = 3
	b := &Metrics{MissAsleep: 10, ObservedSlots: 20, BatteryFracSum: 2.5}
	b.BatteryHist[0] = 1
	b.BatteryHist[9] = 2
	a.Merge(b)
	if a.MissAsleep != 11 || a.ObservedSlots != 25 || a.BatteryFracSum != 4 ||
		a.BatteryHist[0] != 4 || a.BatteryHist[9] != 2 || a.KernelRuns != 6 {
		t.Fatalf("merge result %+v", a)
	}
	if got := a.MeanBatteryFrac(); got != 4.0/25 {
		t.Fatalf("mean battery frac = %v", got)
	}
	if (&Metrics{}).MeanBatteryFrac() != 0 {
		t.Fatal("empty metrics mean battery frac != 0")
	}
}
