package sim

import (
	"reflect"
	"testing"

	"eventcap/internal/energy"
	"eventcap/internal/trace"
)

// TestBatchMultiPerRepMatchesKernel pins the fleet batch contract:
// replication r of a round-robin batch must reproduce the multi-kernel
// run at Seed + r bit for bit, for Bernoulli recharge too, with metrics
// on or off.
func TestBatchMultiPerRepMatchesKernel(t *testing.T) {
	const reps = 48
	recharges := []struct {
		name string
		make func() energy.Recharge
	}{
		{"uniform-0.5", func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }},
		{"periodic-5-per-10", func() energy.Recharge { r, _ := energy.NewPeriodic(5, 10); return r }},
		{"bernoulli-0.5-1", func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }},
	}
	kc := kernelCases(t)[0]
	for _, rc := range recharges {
		for _, metrics := range []bool{false, true} {
			const n = 3
			cfg := multiKernelConfig(t, kc, rc.make, n, 100, 42)
			cfg.Slots = 10_000
			cfg.Metrics = metrics
			cfg.Engine = EngineBatch
			cfg.Batch = reps
			batch, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s metrics=%v: batch: %v", rc.name, metrics, err)
			}
			if len(batch.Sensors) != reps*n {
				t.Fatalf("%s: batch returned %d sensor blocks, want %d", rc.name, len(batch.Sensors), reps*n)
			}
			var events, captures int64
			var agg *Metrics
			for r := 0; r < reps; r++ {
				sub := multiKernelConfig(t, kc, rc.make, n, 100, 42+uint64(r))
				sub.Slots = 10_000
				sub.Metrics = metrics
				sub.Engine = EngineKernel
				one, err := Run(sub)
				if err != nil {
					t.Fatalf("%s replication %d: %v", rc.name, r, err)
				}
				if !reflect.DeepEqual(batch.Sensors[r*n:(r+1)*n], one.Sensors) {
					t.Fatalf("%s metrics=%v replication %d diverged:\nbatch  %+v\nkernel %+v",
						rc.name, metrics, r, batch.Sensors[r*n:(r+1)*n], one.Sensors)
				}
				events += one.Events
				captures += one.Captures
				agg = foldReplicaMetrics(agg, one.Metrics)
			}
			if batch.Events != events || batch.Captures != captures {
				t.Errorf("%s: batch totals %d/%d, paired kernel sum %d/%d",
					rc.name, batch.Events, batch.Captures, events, captures)
			}
			if !reflect.DeepEqual(batch.Metrics, agg) {
				t.Errorf("%s metrics=%v: batch metrics diverge from the replication sum:\nbatch %+v\nsum   %+v",
					rc.name, metrics, batch.Metrics, agg)
			}
		}
	}
}

// foldReplicaMetrics folds one replication's Metrics into the running
// batch aggregate agg under the batch convention: replication 0's copy,
// then Metrics.mergeReplica. Nil stays nil (metrics off).
func foldReplicaMetrics(agg, rep *Metrics) *Metrics {
	if rep == nil {
		return agg
	}
	if agg == nil {
		c := *rep
		return &c
	}
	agg.mergeReplica(rep)
	return agg
}

// TestBatchIndepPerRepMatchesIndependent is the decoupled-fleet pairing:
// replication r of an independent batch must reproduce the compiled
// independent engine at Seed + r bit for bit (both paths fast-forward
// through the same per-sensor streams), with metrics on or off.
func TestBatchIndepPerRepMatchesIndependent(t *testing.T) {
	const reps = 24
	recharges := []struct {
		name string
		make func() energy.Recharge
	}{
		{"uniform-0.4", func() energy.Recharge { r, _ := energy.NewConstant(0.4); return r }},
		{"bernoulli-0.4-1", func() energy.Recharge { r, _ := energy.NewBernoulli(0.4, 1); return r }},
	}
	for _, rc := range recharges {
		for _, metrics := range []bool{false, true} {
			const n = 3
			cfg := independentKernelConfig(t, rc.make, n, 7)
			cfg.Slots = 10_000
			cfg.Metrics = metrics
			cfg.Engine = EngineBatch
			cfg.Batch = reps
			batch, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: batch: %v", rc.name, err)
			}
			if len(batch.Sensors) != reps*n {
				t.Fatalf("%s: batch returned %d sensor blocks, want %d", rc.name, len(batch.Sensors), reps*n)
			}
			var events, captures int64
			var agg *Metrics
			for r := 0; r < reps; r++ {
				sub := independentKernelConfig(t, rc.make, n, 7+uint64(r))
				sub.Slots = 10_000
				sub.Metrics = metrics
				sub.Engine = EngineKernel
				one, err := Run(sub)
				if err != nil {
					t.Fatalf("%s replication %d: %v", rc.name, r, err)
				}
				if !reflect.DeepEqual(batch.Sensors[r*n:(r+1)*n], one.Sensors) {
					t.Fatalf("%s metrics=%v replication %d diverged:\nbatch       %+v\nindependent %+v",
						rc.name, metrics, r, batch.Sensors[r*n:(r+1)*n], one.Sensors)
				}
				events += one.Events
				captures += one.Captures
				agg = foldReplicaMetrics(agg, one.Metrics)
			}
			if batch.Events != events || batch.Captures != captures {
				t.Errorf("%s: batch totals %d/%d, paired independent sum %d/%d",
					rc.name, batch.Events, batch.Captures, events, captures)
			}
			if !reflect.DeepEqual(batch.Metrics, agg) {
				t.Errorf("%s metrics=%v: batch metrics diverge from the replication sum:\nbatch %+v\nsum   %+v",
					rc.name, metrics, batch.Metrics, agg)
			}
		}
	}
}

// TestBatchMultiShardingInvariance checks that the worker count, and
// with it the chunk sharding, never touches the random streams of a
// fleet batch: every sharding must produce byte-identical results.
func TestBatchMultiShardingInvariance(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewBernoulli(0.5, 1); return r }
	shard := func(workers int) *Result {
		t.Helper()
		cfg := multiKernelConfig(t, kernelCases(t)[0], newRech, 4, 100, 13)
		cfg.Slots = 5_000
		cfg.Metrics = true
		cfg.Engine = EngineBatch
		cfg.Batch = 40
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := shard(1)
	for _, workers := range []int{3, 4, 13, 40} {
		if got := shard(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d diverged from sequential run", workers)
		}
	}
	// Same invariance for a decoupled fleet.
	ishard := func(workers int) *Result {
		t.Helper()
		cfg := independentKernelConfig(t, newRech, 3, 13)
		cfg.Slots = 5_000
		cfg.Metrics = true
		cfg.Engine = EngineBatch
		cfg.Batch = 40
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	iwant := ishard(1)
	for _, workers := range []int{6, 40} {
		if got := ishard(workers); !reflect.DeepEqual(got, iwant) {
			t.Errorf("independent workers=%d diverged from sequential run", workers)
		}
	}
}

// TestBatchMultiForcedRejectsIneligible enumerates the fleet-specific
// batch rejections; EngineAuto with Batch set must still run the
// configuration through the per-replication fallback.
func TestBatchMultiForcedRejectsIneligible(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"mode-blocks", func(c *Config) { c.Mode = ModeBlocks; c.BlockLen = 5 }},
		{"tracer", func(c *Config) { c.Tracer = trace.New(nil, trace.NewFlightRecorder(32)) }},
		{"independent fault", func(c *Config) {
			c.Mode = ModeAll
			c.Info = PartialInfo
			c.FailAt = map[int]int64{0: 10}
		}},
		{"non-fast-forward recharge", func(c *Config) {
			c.NewRecharge = func() energy.Recharge { r, _ := energy.NewClippedGaussian(0.5, 0.1); return r }
		}},
	}
	for _, tc := range cases {
		cfg := multiKernelConfig(t, kernelCases(t)[0], newRech, 3, 100, 1)
		cfg.Slots = 2_000
		cfg.Batch = 4
		tc.mutate(&cfg)
		cfg.Engine = EngineBatch
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: forced batch did not reject", tc.name)
		}
		cfg.Engine = EngineAuto
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: auto fallback failed: %v", tc.name, err)
		}
	}
}
