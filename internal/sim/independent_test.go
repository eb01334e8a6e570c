package sim

import (
	"testing"

	"eventcap/internal/core"
)

// independentConfig is a ModeAll + PartialInfo multi-sensor setup that
// qualifies for the independent-sensor fast path.
func independentConfig(t *testing.T, n, workers int) Config {
	t.Helper()
	d := mustWeibull(t, 30, 2)
	p := core.DefaultParams()
	pi, err := core.OptimizeClustering(d, 0.4, p, core.ClusteringOptions{CoarsePoints: 8, MaxGap: 256})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Dist:        d,
		Params:      p,
		NewRecharge: bernoulliFactory(t, 0.4, 1),
		NewPolicy:   func(int) Policy { return &VectorPI{Vector: pi.Vector} },
		N:           n,
		Mode:        ModeAll,
		BatteryCap:  400,
		Slots:       120_000,
		Seed:        17,
		Info:        PartialInfo,
		Workers:     workers,
	}
}

// TestIndependentDeterministicAcrossWorkers: the fast path's random
// streams are fixed by the per-sensor decomposition, so every worker
// count reproduces the same result to the last bit.
func TestIndependentDeterministicAcrossWorkers(t *testing.T) {
	base, err := Run(independentConfig(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if base.Events == 0 || base.Captures == 0 {
		t.Fatalf("vacuous run: %+v", base)
	}
	for _, w := range []int{0, 2, 8} {
		got, err := Run(independentConfig(t, 4, w))
		if err != nil {
			t.Fatal(err)
		}
		if got.Events != base.Events || got.Captures != base.Captures || got.QoM != base.QoM {
			t.Fatalf("workers=%d: got events=%d captures=%d qom=%v, want %d %d %v",
				w, got.Events, got.Captures, got.QoM, base.Events, base.Captures, base.QoM)
		}
		for s := range got.Sensors {
			if got.Sensors[s] != base.Sensors[s] {
				t.Fatalf("workers=%d sensor %d: got %+v, want %+v", w, s, got.Sensors[s], base.Sensors[s])
			}
		}
	}
}

// TestIndependentUnionCaptures: the run-level capture count is the union
// over sensors (a slot captured by two sensors counts once), so it is
// bounded by the per-sensor sum and at least the best single sensor.
func TestIndependentUnionCaptures(t *testing.T) {
	res, err := Run(independentConfig(t, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	var sum, best int64
	for _, s := range res.Sensors {
		sum += s.Captures
		if s.Captures > best {
			best = s.Captures
		}
	}
	if res.Captures < best || res.Captures > sum {
		t.Fatalf("union captures %d outside [%d, %d]", res.Captures, best, sum)
	}
	if res.Captures > res.Events {
		t.Fatalf("captures %d exceed events %d", res.Captures, res.Events)
	}
	// Redundant uncoordinated sensors must beat one sensor's QoM. (N=1
	// runs the sequential engine; the comparison is directional, not
	// stream-exact.)
	solo, err := Run(independentConfig(t, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.QoM <= solo.QoM {
		t.Fatalf("3 redundant sensors (%v) not better than 1 (%v)", res.QoM, solo.QoM)
	}
}

// TestIndependentFailAt: a sensor that dies mid-run stops activating;
// the fast path must honor fault injection like the sequential engine.
func TestIndependentFailAt(t *testing.T) {
	cfg := independentConfig(t, 2, 0)
	cfg.FailAt = map[int]int64{0: cfg.Slots / 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sensors[0].Activations >= res.Sensors[1].Activations {
		t.Fatalf("failed sensor activated %d times, healthy one %d",
			res.Sensors[0].Activations, res.Sensors[1].Activations)
	}
}
