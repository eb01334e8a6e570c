package sim

import (
	"reflect"
	"testing"

	"eventcap/internal/stats"
)

// TestStatsDoNotChangeResults is the RNG-neutrality contract of
// Config.Stats: the probe must leave every other Result field
// byte-identical, on every execution path.
func TestStatsDoNotChangeResults(t *testing.T) {
	for _, ec := range engineCases(t) {
		name, cfg := ec.name, ec.cfg
		cfg.Stats = false
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.Stats = true
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Stats == nil {
			t.Fatalf("%s: Stats requested but nil", name)
		}
		got.Stats = nil // the only field allowed to differ
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stats probe changed the run:\nwith    %+v\nwithout %+v", name, got, want)
		}
	}
}

// TestStatsWithMetricsDoNotChangeResults: the probe composes with
// Metrics (they share the battery sampling stride) without disturbing
// either's output.
func TestStatsWithMetricsDoNotChangeResults(t *testing.T) {
	for _, ec := range engineCases(t) {
		name, cfg := ec.name, ec.cfg
		cfg.Metrics = true
		cfg.Stats = false
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.Stats = true
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Metrics, want.Metrics) {
			t.Errorf("%s: probe changed the metrics:\nwith    %+v\nwithout %+v", name, got.Metrics, want.Metrics)
		}
		got.Stats, want.Stats = nil, nil
		got.Metrics, want.Metrics = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: probe changed the run under metrics", name)
		}
	}
}

// TestStatsReportConsistency pins the report's totals to the Result
// and its shape to the engine: batch paths report per-replication CIs,
// per-run paths batch means with a battery summary.
func TestStatsReportConsistency(t *testing.T) {
	for _, ec := range engineCases(t) {
		name, cfg := ec.name, ec.cfg
		cfg.Stats = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := res.Stats
		if r.Events != res.Events || r.Captures != res.Captures {
			t.Errorf("%s: report totals %d/%d, result %d/%d", name, r.Events, r.Captures, res.Events, res.Captures)
		}
		if r.Mean != res.QoM {
			t.Errorf("%s: report mean %v != QoM %v", name, r.Mean, res.QoM)
		}
		batch := cfg.Batch > 1
		if batch {
			if r.Method != stats.MethodReplication {
				t.Errorf("%s: method %q, want replication", name, r.Method)
			}
			if r.Count != int64(cfg.Batch) {
				t.Errorf("%s: %d replication samples, want %d", name, r.Count, cfg.Batch)
			}
			if r.Battery != nil {
				t.Errorf("%s: batch path reported a battery summary", name)
			}
		} else {
			if r.Method != stats.MethodBatchMeans {
				t.Errorf("%s: method %q, want batch-means", name, r.Method)
			}
			if r.Battery == nil {
				t.Errorf("%s: no battery summary", name)
			} else {
				b := r.Battery
				if b.Count == 0 || b.Mean < 0 || b.Mean > 1 || b.P10 > b.P50 || b.P50 > b.P90 {
					t.Errorf("%s: battery summary %+v", name, b)
				}
			}
		}
		if r.Level != stats.DefaultCILevel {
			t.Errorf("%s: no CI in %+v", name, r)
		}
		// A run that captures every event has a legitimately degenerate
		// (zero-width) interval; otherwise the CI must be usable.
		if r.Variance > 0 && (r.HalfWidth <= 0 || r.RelHalfWidth <= 0) {
			t.Errorf("%s: unusable CI in %+v", name, r)
		}
	}
}

// TestKernelStatsMatchReference: under deterministic recharge the
// kernel sees the same event sequence in the same order as the
// reference engine, so the QoM side of the report must match bit for
// bit — sleep-run bulk misses and per-slot misses are the same stream.
// (The battery streams legitimately differ: the kernel samples awake
// slots only.)
func TestKernelStatsMatchReference(t *testing.T) {
	for _, kc := range kernelCases(t) {
		for _, batteryCap := range []float64{7, 100} {
			cfg := kernelBaseConfig(t, kc, constantFactory(t, 0.5), batteryCap, 2)
			cfg.Stats = true

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
			r, k := *ref.Stats, *ker.Stats
			r.Battery, k.Battery = nil, nil
			if !reflect.DeepEqual(r, k) {
				t.Errorf("%s K=%g: kernel stats diverge:\nkernel    %+v\nreference %+v", kc.name, batteryCap, k, r)
			}
		}
	}
}

// TestStatsSink: interim reports stream during the run and the final
// sink report equals Result.Stats.
func TestStatsSink(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Engine = EngineReference
	var got []stats.Report
	cfg.StatsSink = func(r stats.Report) { got = append(got, r) }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("StatsSink alone must imply the probe")
	}
	if len(got) == 0 {
		t.Fatal("sink saw no reports")
	}
	last := got[len(got)-1]
	if !reflect.DeepEqual(last, *res.Stats) {
		t.Fatalf("final sink report %+v != Result.Stats %+v", last, *res.Stats)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Events < got[i-1].Events {
			t.Fatalf("report %d went backwards: %d < %d events", i, got[i].Events, got[i-1].Events)
		}
	}
}
