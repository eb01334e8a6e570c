package sim

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"eventcap/internal/energy"
	"eventcap/internal/trace"
)

// TestBatchSingleReplicationByteIdenticalToKernel is the compiled
// batch's anchor contract: each replication of a Batch = 3 run must
// reproduce the kernel run at its seed bit for bit — every count and
// every floating-point battery total, and the Metrics under the batch
// convention — for deterministic and Bernoulli recharge alike (a
// replication runs the kernel's own loop). Replications r ≥ 1 sample no
// battery, so their always-on runs end at other points than the sampled
// single run's: this is where that end point is checked to move nothing.
func TestBatchSingleReplicationByteIdenticalToKernel(t *testing.T) {
	const reps = 3
	recharges := []struct {
		name string
		make func() energy.Recharge
	}{
		{"uniform-0.5", func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }},
		{"periodic-5-per-10", func() energy.Recharge { r, _ := energy.NewPeriodic(5, 10); return r }},
		{"bernoulli-0.5-1", func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }},
	}
	for _, kc := range kernelCases(t) {
		for _, rc := range recharges {
			for _, batteryCap := range []float64{7, 100} {
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := kernelBaseConfig(t, kc, rc.make, batteryCap, seed)
					cfg.Engine = EngineKernel
					cfg.Batch = reps
					got, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s/%s K=%g: batch: %v", kc.name, rc.name, batteryCap, err)
					}
					if got.Engine != EngineKernel {
						t.Fatalf("%s/%s: batch result reports engine %v", kc.name, rc.name, got.Engine)
					}
					var events, captures int64
					var agg *Metrics
					for r := 0; r < reps; r++ {
						one := cfg
						one.Batch = 0
						one.Seed = seed + uint64(r)
						want, err := Run(one)
						if err != nil {
							t.Fatalf("%s/%s K=%g: kernel: %v", kc.name, rc.name, batteryCap, err)
						}
						if got.Sensors[r] != want.Sensors[0] {
							t.Errorf("%s/%s K=%g seed=%d replication %d:\nbatch  %+v\nkernel %+v",
								kc.name, rc.name, batteryCap, seed, r, got.Sensors[r], want.Sensors[0])
						}
						events += want.Events
						captures += want.Captures
						agg = foldReplicaMetrics(agg, want.Metrics)
					}
					if got.Events != events || got.Captures != captures || !reflect.DeepEqual(got.Metrics, agg) {
						t.Errorf("%s/%s K=%g seed=%d: batch totals %d/%d metrics %+v, kernel runs %d/%d metrics %+v",
							kc.name, rc.name, batteryCap, seed, got.Events, got.Captures, got.Metrics, events, captures, agg)
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
// match 256 independent sim.Run calls exactly.
func TestBatchMatchesIndependentRunsPairedSeeds(t *testing.T) {
	const reps = 256
	newRech := func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }
	kc := kernelCases(t)[0]
	cfg := kernelBaseConfig(t, kc, newRech, 100, 42)
	cfg.Slots = 20_000
	cfg.Engine = EngineKernel
	cfg.Batch = reps
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Sensors) != reps {
		t.Fatalf("batch returned %d sensor blocks, want %d", len(batch.Sensors), reps)
	}

	var events, captures int64
	var agg *Metrics
	for r := 0; r < reps; r++ {
		sub := kernelBaseConfig(t, kc, newRech, 100, 42+uint64(r))
		sub.Slots = 20_000
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
		agg = foldReplicaMetrics(agg, one.Metrics)
	}
	if batch.Events != events || batch.Captures != captures {
		t.Errorf("batch totals %d/%d, independent sum %d/%d", batch.Events, batch.Captures, events, captures)
	}
	if want := float64(captures) / float64(events); batch.QoM != want {
		t.Errorf("batch QoM %v, pooled independent %v", batch.QoM, want)
	}
	m := batch.Metrics
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
	base.Engine = EngineKernel
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
// with an eligible config runs the compiled batch, as forced
// EngineKernel does; forced EngineReference, and auto with an
// ineligible (stateful) policy, run the replications on the reference
// engine, each reproducing the single reference run at its paired seed.
func TestBatchAutoAndFallback(t *testing.T) {
	const reps = 4
	newRech := func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }
	kc := kernelCases(t)[0]
	base := kernelBaseConfig(t, kc, newRech, 100, 9)
	base.Slots = 5_000
	base.Batch = reps

	forced := base
	forced.Engine = EngineKernel
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
		t.Errorf("auto with Batch=%d did not match the forced kernel batch", reps)
	}

	ref := base
	ref.Engine = EngineReference
	stateful := base
	stateful.Engine = EngineAuto
	stateful.NewPolicy = func(int) Policy { return &EBCW{PYes: 0.9, PNo: 0.1} }
	for _, cfg := range []Config{ref, stateful} {
		agg, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if agg.Engine != EngineReference || len(agg.Sensors) != reps {
			t.Fatalf("policy %s: batch ran on %v with %d sensor blocks, want reference with %d",
				cfg.NewPolicy(0).Name(), agg.Engine, len(agg.Sensors), reps)
		}
		var events, captures int64
		for r := 0; r < reps; r++ {
			sub := cfg
			sub.Batch = 0
			sub.Seed = base.Seed + uint64(r)
			sub.Engine = EngineReference
			one, err := Run(sub)
			if err != nil {
				t.Fatal(err)
			}
			if agg.Sensors[r] != one.Sensors[0] {
				t.Errorf("policy %s: replication %d diverged", cfg.NewPolicy(0).Name(), r)
			}
			events += one.Events
			captures += one.Captures
		}
		if agg.Events != events || agg.Captures != captures {
			t.Errorf("policy %s: batch totals %d/%d, want %d/%d", cfg.NewPolicy(0).Name(), agg.Events, agg.Captures, events, captures)
		}
	}
}

// TestBatchForcedRejectsIneligible mirrors the kernel's enumeration: a
// batch forced onto EngineKernel must refuse every configuration the
// kernel refuses rather than silently degrading, and EngineAuto must
// run it on the reference engine.
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
			t.Errorf("%s: forced kernel batch did not reject", tc.name)
		}
		cfg.Engine = EngineAuto
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: auto fallback failed: %v", tc.name, err)
		}
	}
}

// TestBatchValidation covers Config.Batch's validation: a negative
// count, and a Tracer on a batch on either engine (the trace would hold
// replication 0 alone); a traced single run still runs.
func TestBatchValidation(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }
	cfg := kernelBaseConfig(t, kernelCases(t)[0], newRech, 100, 1)
	cfg.Batch = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative Batch accepted")
	}
	for _, engine := range []Engine{EngineAuto, EngineKernel, EngineReference} {
		traced := cfg
		traced.Engine = engine
		traced.Tracer = trace.NewWriter(io.Discard)
		traced.Batch = 2
		if _, err := Run(traced); err == nil || !strings.Contains(err.Error(), "Tracer with Batch") {
			t.Errorf("%v: traced batch error %v, want a refusal", engine, err)
		}
		traced.Batch = 1
		if _, err := Run(traced); err != nil {
			t.Errorf("%v: traced single run: %v", engine, err)
		}
	}
}
