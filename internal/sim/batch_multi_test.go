package sim

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"eventcap/internal/energy"
	"eventcap/internal/trace"
)

// TestBatchMultiPerRepMatchesKernel pins the fleet batch contract:
// replication r of a batch must reproduce the fleet-kernel run at
// Seed + r bit for bit, for a round-robin fleet and a block fleet (the
// periodic(3/8) policy on its θ2-slot blocks, fig6's π_PE shape), for
// Bernoulli recharge too. Replications r ≥ 1 sample no battery, so this
// also checks that the always-on runs their samples would have ended
// move no draw.
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
	cases := kernelCases(t)
	fleets := []struct {
		kc kernelCase
		fm fleetMode
	}{
		{cases[0], fleetModes[0]},
		{cases[4], fleetModes[3]},
	}
	for _, fl := range fleets {
		kc, fm := fl.kc, fl.fm
		for _, rc := range recharges {
			const n = 3
			name := fm.name + "/" + kc.name + "/" + rc.name
			cfg := multiKernelConfig(t, kc, rc.make, n, 100, 42)
			fm.apply(&cfg)
			cfg.Slots = 10_000
			cfg.Engine = EngineKernel
			cfg.Batch = reps
			batch, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: batch: %v", name, err)
			}
			if len(batch.Sensors) != reps*n {
				t.Fatalf("%s: batch returned %d sensor blocks, want %d", name, len(batch.Sensors), reps*n)
			}
			var events, captures int64
			var agg *Metrics
			for r := 0; r < reps; r++ {
				sub := multiKernelConfig(t, kc, rc.make, n, 100, 42+uint64(r))
				fm.apply(&sub)
				sub.Slots = 10_000
				sub.Engine = EngineKernel
				one, err := Run(sub)
				if err != nil {
					t.Fatalf("%s replication %d: %v", name, r, err)
				}
				if !reflect.DeepEqual(batch.Sensors[r*n:(r+1)*n], one.Sensors) {
					t.Fatalf("%s replication %d diverged:\nbatch  %+v\nkernel %+v",
						name, r, batch.Sensors[r*n:(r+1)*n], one.Sensors)
				}
				events += one.Events
				captures += one.Captures
				agg = foldReplicaMetrics(agg, one.Metrics)
			}
			if batch.Events != events || batch.Captures != captures {
				t.Errorf("%s: batch totals %d/%d, paired kernel sum %d/%d",
					name, batch.Events, batch.Captures, events, captures)
			}
			if !reflect.DeepEqual(batch.Metrics, agg) {
				t.Errorf("%s: batch metrics diverge from the replication sum:\nbatch %+v\nsum   %+v",
					name, batch.Metrics, agg)
			}
		}
	}
}

// foldReplicaMetrics folds one replication's Metrics into the running
// batch aggregate agg, replications in order, under the batch
// convention: event-class and kernel counters sum, battery occupancy is
// replication 0's.
func foldReplicaMetrics(agg, rep *Metrics) *Metrics {
	if agg == nil {
		c := *rep
		return &c
	}
	later := *rep
	later.ObservedSlots, later.BatteryFracSum, later.BatteryHist, later.EnergyOutageSlots = 0, 0, [batteryBins]int64{}, 0
	agg.Merge(&later)
	return agg
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
		cfg.Engine = EngineKernel
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
}

// TestBatchMultiForcedRejectsIneligible enumerates the fleet-specific
// rejections of a batch forced onto EngineKernel, each on a round-robin
// fleet the kernel would otherwise take, and checks that the error
// names the case's reason; EngineAuto with Batch set must still run the
// configuration, on the reference engine. A tracer is refused on a
// batch whatever the engine.
func TestBatchMultiForcedRejectsIneligible(t *testing.T) {
	newRech := func() energy.Recharge { r, _ := energy.NewConstant(0.5); return r }
	cases := []struct {
		name    string
		mutate  func(*Config)
		reason  string
		refused bool // EngineAuto refuses the batch too
	}{
		{"tracer", func(c *Config) { c.Tracer = trace.NewWriter(io.Discard) }, "Tracer with Batch", true},
		{"fault", func(c *Config) { c.FailAt = map[int]int64{0: 10} }, "fault injection", false},
		{"non-fast-forward recharge", func(c *Config) {
			c.NewRecharge = func() energy.Recharge { r, _ := energy.NewClippedGaussian(0.5, 0.1); return r }
		}, "cannot fast-forward", false},
	}
	for _, tc := range cases {
		cfg := multiKernelConfig(t, kernelCases(t)[0], newRech, 3, 100, 1)
		cfg.Slots = 2_000
		cfg.Batch = 4
		tc.mutate(&cfg)
		cfg.Engine = EngineKernel
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: forced kernel batch error %v, want one naming %q", tc.name, err, tc.reason)
		}
		cfg.Engine = EngineAuto
		_, err := Run(cfg)
		switch {
		case tc.refused && (err == nil || !strings.Contains(err.Error(), tc.reason)):
			t.Errorf("%s: auto batch error %v, want one naming %q", tc.name, err, tc.reason)
		case !tc.refused && err != nil:
			t.Errorf("%s: auto fallback failed: %v", tc.name, err)
		}
	}
}
