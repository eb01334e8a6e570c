package sim

import (
	"reflect"
	"testing"
)

// earlyStopConfig has Stats on, so the reproducibility checks compare
// the stats reports too.
func earlyStopConfig(t *testing.T, batch int) Config {
	cfg := kernelBaseConfig(t, kernelCases(t)[0], constantFactory(t, 0.5), 100, 1)
	cfg.Slots = 20000
	cfg.Batch = batch
	cfg.Stats = true
	return cfg
}

// TestEarlyStopExhaustedEqualsPlainBatch: with an unreachable target
// the monitor never fires, every replication runs, and the Result must
// be byte-identical to the plain Batch=B run of the same Config, stats
// report included.
func TestEarlyStopExhaustedEqualsPlainBatch(t *testing.T) {
	cfg := earlyStopConfig(t, 17) // odd budget: exercises the leftover size-1 round
	cfg.Metrics = true
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, dec, err := RunWithEarlyStop(cfg, EarlyStopOptions{TargetRelHW: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stopped || dec.Reps != 17 || dec.MaxReps != 17 {
		t.Fatalf("decision %+v, want exhausted at 17", dec)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Errorf("exhausted early-stop run diverged from plain batch:\ngot   %+v\nplain %+v", got, plain)
	}
}

// TestEarlyStopStopsAndIsReproducible is the manifest contract: a run
// that stops at R replications records R, and re-running the same
// Config with Batch=R (no monitor) reproduces it byte-identically,
// stats report included.
func TestEarlyStopStopsAndIsReproducible(t *testing.T) {
	cfg := earlyStopConfig(t, 64)
	got, dec, err := RunWithEarlyStop(cfg, EarlyStopOptions{TargetRelHW: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Stopped {
		t.Fatalf("loose target did not stop: %+v", dec)
	}
	if dec.Reps >= dec.MaxReps || dec.Reps < dec.MinReps {
		t.Fatalf("stopping point %+v out of range", dec)
	}
	if dec.RelHalfWidth <= 0 || dec.RelHalfWidth > dec.TargetRelHW {
		t.Fatalf("recorded half-width %v does not satisfy the target %v", dec.RelHalfWidth, dec.TargetRelHW)
	}
	replay := cfg
	replay.Batch = dec.Reps
	want, err := Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stopped run is not reproducible from its decision:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestEarlyStopMinReps(t *testing.T) {
	cfg := earlyStopConfig(t, 64)
	cfg.Stats = false
	res, dec, err := RunWithEarlyStop(cfg, EarlyStopOptions{TargetRelHW: 0.5, MinReps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Reps < 8 {
		t.Fatalf("stopped at %d replications, MinReps 8", dec.Reps)
	}
	if res.Stats != nil {
		t.Fatal("early stop returned a stats report nobody asked for")
	}

	// Stats flow to the caller when requested.
	cfg.Stats = true
	res, _, err = RunWithEarlyStop(cfg, EarlyStopOptions{TargetRelHW: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.Events != res.Events || res.Stats.Mean != res.QoM {
		t.Fatalf("early-stop stats %+v inconsistent with result", res.Stats)
	}
}

func TestEarlyStopValidation(t *testing.T) {
	cfg := earlyStopConfig(t, 8)
	if _, _, err := RunWithEarlyStop(cfg, EarlyStopOptions{}); err == nil {
		t.Fatal("zero target accepted")
	}
	cfg.Batch = 1
	if _, _, err := RunWithEarlyStop(cfg, EarlyStopOptions{TargetRelHW: 0.1}); err == nil {
		t.Fatal("Batch <= 1 accepted")
	}
}
