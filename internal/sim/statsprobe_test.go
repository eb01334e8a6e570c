package sim

import (
	"reflect"
	"testing"

	"eventcap/internal/stats"
)

// TestStatsReportConsistency pins the report's totals to the Result
// and its shape to the engine: batch paths report per-replication CIs,
// per-run paths batch means.
func TestStatsReportConsistency(t *testing.T) {
	for _, ec := range engineCases(t) {
		name, cfg := ec.name, ec.cfg
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
		} else if r.Method != stats.MethodBatchMeans {
			t.Errorf("%s: method %q, want batch-means", name, r.Method)
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
func TestKernelStatsMatchReference(t *testing.T) {
	for _, kc := range kernelCases(t) {
		for _, batteryCap := range []float64{7, 100} {
			cfg := kernelBaseConfig(t, kc, constantFactory(t, 0.5), batteryCap, 2)
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
			if r, k := *ref.Stats, *ker.Stats; !reflect.DeepEqual(r, k) {
				t.Errorf("%s K=%g: kernel stats diverge:\nkernel    %+v\nreference %+v", kc.name, batteryCap, k, r)
			}
		}
	}
}
