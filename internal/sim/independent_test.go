package sim

import (
	"testing"

	"eventcap/internal/core"
)

// independentConfig is a decoupled fleet: ModeAll + PartialInfo, every
// sensor deciding in every slot on its own capture history.
func independentConfig(t *testing.T, n int) Config {
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
	}
}

// TestIndependentDeterministicAcrossRuns: a decoupled fleet draws every
// decision and recharge from streams its seed fixes, so a second run
// reproduces the first to the last bit.
func TestIndependentDeterministicAcrossRuns(t *testing.T) {
	base, err := Run(independentConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if base.Events == 0 || base.Captures == 0 {
		t.Fatalf("vacuous run: %+v", base)
	}
	got, err := Run(independentConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got.Events != base.Events || got.Captures != base.Captures || got.QoM != base.QoM {
		t.Fatalf("second run: got events=%d captures=%d qom=%v, want %d %d %v",
			got.Events, got.Captures, got.QoM, base.Events, base.Captures, base.QoM)
	}
	for s := range got.Sensors {
		if got.Sensors[s] != base.Sensors[s] {
			t.Fatalf("second run, sensor %d: got %+v, want %+v", s, got.Sensors[s], base.Sensors[s])
		}
	}
}

// TestIndependentUnionCaptures: the run-level capture count is the union
// over sensors (a slot captured by two sensors counts once), so it is
// bounded by the per-sensor sum and at least the best single sensor.
func TestIndependentUnionCaptures(t *testing.T) {
	res, err := Run(independentConfig(t, 3))
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
	// runs the kernel; the comparison is directional, not stream-exact.)
	solo, err := Run(independentConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.QoM <= solo.QoM {
		t.Fatalf("3 redundant sensors (%v) not better than 1 (%v)", res.QoM, solo.QoM)
	}
}

// TestIndependentFailAt: a sensor of a decoupled fleet that dies
// mid-run stops activating while its peer goes on.
func TestIndependentFailAt(t *testing.T) {
	cfg := independentConfig(t, 2)
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

// TestDecoupledSensorsKeepOwnCaptureClock: uncoordinated
// partial-information sensors broadcast nothing, so each decides on its
// own f clock, the slots since its own last capture. With deterministic
// region policies (probabilities 0 and 1 draw no decision randomness)
// and constant recharge, each sensor of a decoupled fleet then runs
// exactly as it would alone: its SensorStats equal the N = 1 run of its
// own policy at the same seed, bit for bit. A shared clock would let one
// sensor's captures reset the other's state.
func TestDecoupledSensorsKeepOwnCaptureClock(t *testing.T) {
	policies := []core.ClusteringPolicy{
		{N1: 20, N2: 40, N3: 80, C1: 1, C2: 1, C3: 1},
		{N1: 30, N2: 35, N3: 60, C1: 1, C2: 1, C3: 1},
	}
	config := func(pols ...core.ClusteringPolicy) Config {
		return Config{
			Dist:        mustWeibull(t, 40, 3),
			Params:      core.DefaultParams(),
			NewRecharge: constantFactory(t, 0.25),
			NewPolicy:   func(s int) Policy { return &VectorPI{Vector: pols[s].Vector()} },
			N:           len(pols),
			Mode:        ModeAll,
			BatteryCap:  50,
			Slots:       200_000,
			Seed:        3,
			Info:        PartialInfo,
		}
	}
	fleet, err := Run(config(policies...))
	if err != nil {
		t.Fatal(err)
	}
	var sum, best int64
	for s, pol := range policies {
		solo, err := Run(config(pol))
		if err != nil {
			t.Fatal(err)
		}
		if solo.Events != fleet.Events {
			t.Fatalf("sensor %d: solo run saw %d events, fleet %d", s, solo.Events, fleet.Events)
		}
		if got, want := fleet.Sensors[s], solo.Sensors[0]; got != want {
			t.Errorf("sensor %d: fleet %+v, alone %+v", s, got, want)
		}
		c := fleet.Sensors[s].Captures
		if c == 0 {
			t.Fatalf("sensor %d captured nothing; test vacuous", s)
		}
		sum += c
		best = max(best, c)
	}
	if fleet.Captures < best || fleet.Captures > sum {
		t.Errorf("union captures %d outside [%d, %d]", fleet.Captures, best, sum)
	}
}
