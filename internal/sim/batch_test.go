package sim

import (
	"reflect"
	"testing"

	"eventcap/internal/energy"
	"eventcap/internal/trace"
)

// TestBatchSingleReplicationByteIdenticalToKernel is the batch engine's
// anchor contract: with one replication the batch engine must reproduce
// the kernel run at the same seed bit for bit — every count and every
// floating-point battery total — for deterministic and Bernoulli
// recharge alike, with metrics on or off (a replication runs the
// kernel's own loop).
func TestBatchSingleReplicationByteIdenticalToKernel(t *testing.T) {
	recharges := []struct {
		name    string
		make    func() energy.Recharge
		metrics []bool
	}{
		{"uniform-0.5", func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }, []bool{false, true}},
		{"periodic-5-per-10", func() energy.Recharge { r, _ := energy.NewPeriodic(5, 10); return r }, []bool{false, true}},
		{"bernoulli-0.5-1", func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }, []bool{false, true}},
	}
	for _, kc := range kernelCases(t) {
		for _, rc := range recharges {
			for _, metrics := range rc.metrics {
				for _, batteryCap := range []float64{7, 100} {
					for seed := uint64(1); seed <= 3; seed++ {
						cfg := kernelBaseConfig(t, kc, rc.make, batteryCap, seed)
						cfg.Metrics = metrics

						cfg.Engine = EngineKernel
						want, err := Run(cfg)
						if err != nil {
							t.Fatalf("%s/%s K=%g: kernel: %v", kc.name, rc.name, batteryCap, err)
						}
						cfg.Engine = EngineBatch
						got, err := Run(cfg)
						if err != nil {
							t.Fatalf("%s/%s K=%g: batch: %v", kc.name, rc.name, batteryCap, err)
						}
						if got.Engine != EngineBatch {
							t.Fatalf("%s/%s: batch result reports engine %v", kc.name, rc.name, got.Engine)
						}
						got.Engine = want.Engine
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s/%s K=%g seed=%d metrics=%v:\nbatch  %+v\nkernel %+v",
								kc.name, rc.name, batteryCap, seed, metrics, got, want)
						}
					}
				}
			}
		}
	}
}

// TestBatchMatchesIndependentRunsPairedSeeds checks the seed-pairing
// contract at B=256: replication r of a batch must reproduce the
// single-run result at Seed + r, so the batch's per-sensor stats, event
// and capture totals, pooled QoM, and summed miss decomposition must all
// match 256 independent sim.Run calls exactly (metrics stay on, so the
// instrumented replications consume their streams exactly as the kernel
// would).
func TestBatchMatchesIndependentRunsPairedSeeds(t *testing.T) {
	const reps = 256
	newRech := func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }
	kc := kernelCases(t)[0]
	cfg := kernelBaseConfig(t, kc, newRech, 100, 42)
	cfg.Slots = 20_000
	cfg.Metrics = true

	cfg.Engine = EngineBatch
	cfg.Batch = reps
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Sensors) != reps {
		t.Fatalf("batch returned %d sensor blocks, want %d", len(batch.Sensors), reps)
	}

	var events, captures int64
	agg := &Metrics{}
	for r := 0; r < reps; r++ {
		sub := kernelBaseConfig(t, kc, newRech, 100, 42+uint64(r))
		sub.Slots = 20_000
		sub.Metrics = true
		sub.Engine = EngineKernel
		one, err := Run(sub)
		if err != nil {
			t.Fatalf("replication %d: %v", r, err)
		}
		if batch.Sensors[r] != one.Sensors[0] {
			t.Fatalf("replication %d stats diverged:\nbatch  %+v\nsingle %+v", r, batch.Sensors[r], one.Sensors[0])
		}
		events += one.Events
		captures += one.Captures
		if r == 0 {
			*agg = *one.Metrics
		} else {
			agg.mergeReplica(one.Metrics)
		}
	}
	if batch.Events != events || batch.Captures != captures {
		t.Errorf("batch totals %d/%d, independent sum %d/%d", batch.Events, batch.Captures, events, captures)
	}
	if want := float64(captures) / float64(events); batch.QoM != want {
		t.Errorf("batch QoM %v, pooled independent %v", batch.QoM, want)
	}
	m := batch.Metrics
	if m == nil {
		t.Fatal("batch dropped Metrics")
	}
	if m.MissAsleep != agg.MissAsleep || m.MissNoEnergy != agg.MissNoEnergy ||
		m.WastedActivations != agg.WastedActivations ||
		m.KernelRuns != agg.KernelRuns || m.KernelSlotsFastForwarded != agg.KernelSlotsFastForwarded {
		t.Errorf("batch metrics diverged:\nbatch %+v\nsum   %+v", m, agg)
	}
	// Occupancy comes from replication 0 only.
	if m.ObservedSlots != agg.ObservedSlots || m.BatteryFracSum != agg.BatteryFracSum ||
		m.EnergyOutageSlots != agg.EnergyOutageSlots || m.BatteryHist != agg.BatteryHist {
		t.Errorf("batch occupancy diverged from replication 0:\nbatch %+v\nrep0  %+v", m, agg)
	}
	if m.MissAsleep+m.MissNoEnergy+batch.Captures != batch.Events {
		t.Errorf("miss decomposition broken: %d asleep + %d no-energy + %d captures != %d events",
			m.MissAsleep, m.MissNoEnergy, batch.Captures, batch.Events)
	}
}

// TestBatchShardingInvariance checks that the Result is byte-identical
// for every Workers setting, and so for every chunk sharding derived
// from it (one chunk, uneven chunks, single-replication chunks) — the
// acceptance criterion that forces per-replication streams.
func TestBatchShardingInvariance(t *testing.T) {
	const reps = 500
	newRech := func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }
	kc := kernelCases(t)[0]
	base := kernelBaseConfig(t, kc, newRech, 100, 7)
	base.Slots = 10_000
	base.Engine = EngineBatch
	base.Batch = reps

	var want *Result
	for _, workers := range []int{1, 3, 0, 7, reps, 2 * reps} {
		cfg := base
		cfg.Workers = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from first run", workers)
		}
	}
}

// TestBatchAutoAndFallback checks engine selection around Batch: auto
// with an eligible config picks the batch engine; auto with an ineligible
// config and forced per-run engines aggregate the replications through
// individual runs at the paired seeds.
func TestBatchAutoAndFallback(t *testing.T) {
	const reps = 4
	newRech := func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }
	kc := kernelCases(t)[0]
	base := kernelBaseConfig(t, kc, newRech, 100, 9)
	base.Slots = 5_000
	base.Batch = reps

	forced := base
	forced.Engine = EngineBatch
	want, err := Run(forced)
	if err != nil {
		t.Fatal(err)
	}
	auto := base
	auto.Engine = EngineAuto
	got, err := Run(auto)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("auto with Batch=%d did not match forced batch engine", reps)
	}

	// Forced reference engine: the replications run individually.
	ref := base
	ref.Engine = EngineReference
	agg, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Sensors) != reps {
		t.Fatalf("fallback returned %d sensor blocks, want %d", len(agg.Sensors), reps)
	}
	var events, captures int64
	for r := 0; r < reps; r++ {
		sub := base
		sub.Batch = 0
		sub.Seed = base.Seed + uint64(r)
		sub.Engine = EngineReference
		one, err := Run(sub)
		if err != nil {
			t.Fatal(err)
		}
		if agg.Sensors[r] != one.Sensors[0] {
			t.Errorf("fallback replication %d diverged", r)
		}
		events += one.Events
		captures += one.Captures
	}
	if agg.Events != events || agg.Captures != captures {
		t.Errorf("fallback totals %d/%d, want %d/%d", agg.Events, agg.Captures, events, captures)
	}

	// Auto with an ineligible (stateful) policy still honors Batch via
	// the fallback.
	stateful := base
	stateful.Engine = EngineAuto
	stateful.NewPolicy = func(int) Policy { return &EBCW{PYes: 0.9, PNo: 0.1} }
	res, err := Run(stateful)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sensors) != reps {
		t.Errorf("ineligible auto batch returned %d sensor blocks, want %d", len(res.Sensors), reps)
	}
}

// TestBatchForcedRejectsIneligible mirrors the kernel's enumeration: a
// forced EngineBatch must refuse every ineligible configuration —
// everything the kernel refuses, plus a slot tracer — rather than
// silently degrading.
func TestBatchForcedRejectsIneligible(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }
	base := func() Config {
		cfg := kernelBaseConfig(t, kernelCases(t)[0], newRech, 100, 1)
		cfg.Batch = 4
		return cfg
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"multiple sensors", func(c *Config) { c.N = 2 }},
		{"tracer", func(c *Config) { c.Tracer = trace.New(nil, trace.NewFlightRecorder(32)) }},
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
		cfg.Engine = EngineBatch
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: forced batch engine did not reject", tc.name)
		}
		// EngineAuto must still honor Batch for the same config via the
		// fallback paths.
		cfg.Engine = EngineAuto
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: auto fallback failed: %v", tc.name, err)
		}
	}
}

// TestBatchValidation covers Config.Batch's validation.
func TestBatchValidation(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }
	cfg := kernelBaseConfig(t, kernelCases(t)[0], newRech, 100, 1)
	cfg.Batch = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative Batch accepted")
	}
}
