package sim

import (
	"fmt"
	"math"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/rng"
)

// Multi-PoI simulation (extension; see core.OptimizeMultiPoI): one
// full-information sensor watches several independent renewal event
// streams but can monitor at most one per slot.

// PoIPolicy decides which PoI to monitor each slot.
type PoIPolicy interface {
	// Name identifies the policy.
	Name() string
	// Choose returns the PoI to monitor (0-based) and whether to
	// activate, given the full-information ages (slots since each PoI's
	// last event).
	Choose(slot int64, ages []int, battery float64) (int, bool)
	// Reset restores initial state.
	Reset()
}

// MaxHazardThreshold is the calibrated index policy: monitor the PoI with
// the highest current hazard; activate iff that hazard reaches Threshold.
type MaxHazardThreshold struct {
	Dists     []dist.Interarrival
	Threshold float64
}

var _ PoIPolicy = (*MaxHazardThreshold)(nil)

// Name implements PoIPolicy.
func (m *MaxHazardThreshold) Name() string { return "max-hazard-threshold" }

// Choose implements PoIPolicy.
func (m *MaxHazardThreshold) Choose(_ int64, ages []int, _ float64) (int, bool) {
	bestPoI, bestHazard := 0, -1.0
	for i, d := range m.Dists {
		if h := d.Hazard(ages[i]); h > bestHazard {
			bestPoI, bestHazard = i, h
		}
	}
	return bestPoI, bestHazard >= m.Threshold
}

// Reset implements PoIPolicy.
func (m *MaxHazardThreshold) Reset() {}

// RoundRobinPoI cycles through the PoIs with a fixed per-PoI duty: it
// monitors PoI (t mod M) and activates every 1/duty slots on average —
// the blind baseline that ignores hazards entirely.
type RoundRobinPoI struct {
	M    int
	Duty float64
}

var _ PoIPolicy = (*RoundRobinPoI)(nil)

// Name implements PoIPolicy.
func (r *RoundRobinPoI) Name() string { return "round-robin-poi" }

// Choose implements PoIPolicy. Duty <= 0 never activates, Duty >= 1
// activates every slot, and in between the period is the rounded (not
// floored) reciprocal: flooring would bias the effective duty upward
// (Duty = 0.3 → period 3 ≈ duty 0.33 instead of period 3.33).
func (r *RoundRobinPoI) Choose(slot int64, _ []int, _ float64) (int, bool) {
	poi := int(slot % int64(r.M))
	if r.Duty <= 0 {
		return poi, false
	}
	period := int64(1)
	if r.Duty < 1 {
		period = int64(math.Round(1 / r.Duty))
		if period < 1 {
			period = 1
		}
	}
	return poi, slot%period == 0
}

// Reset implements PoIPolicy.
func (r *RoundRobinPoI) Reset() {}

// MultiPoIConfig configures a multi-PoI run.
type MultiPoIConfig struct {
	Dists       []dist.Interarrival
	Params      core.Params
	NewRecharge func() energy.Recharge
	Policy      PoIPolicy
	BatteryCap  float64
	Slots       int64
	Seed        uint64
}

// MultiPoIResult is the outcome of a multi-PoI run.
type MultiPoIResult struct {
	Slots    int64
	Events   int64 // across all PoIs
	Captures int64
	QoM      float64
	PerPoI   []struct{ Events, Captures int64 }
}

// RunMultiPoI simulates a single full-information sensor over several
// independent event streams.
func RunMultiPoI(cfg MultiPoIConfig) (*MultiPoIResult, error) {
	if len(cfg.Dists) == 0 {
		return nil, fmt.Errorf("sim: RunMultiPoI needs at least one PoI")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.NewRecharge == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("sim: RunMultiPoI needs a recharge factory and a policy")
	}
	if !(cfg.BatteryCap > 0) || cfg.Slots < 1 {
		return nil, fmt.Errorf("sim: invalid battery capacity %g or duration %d", cfg.BatteryCap, cfg.Slots)
	}

	root := rng.New(cfg.Seed, 0x90110) // seedflow:ok run-root: the multi-PoI engine's root stream, derived from Config.Seed
	// Stream 1 is never drawn from, but Split consumes a root draw:
	// dropping this call would shift the recharge stream and move
	// ablation-multipoi.
	root.Split(1)
	rechargeSrc := root.Split(2)
	battery, err := energy.NewBattery(cfg.BatteryCap, cfg.BatteryCap/2)
	if err != nil {
		return nil, err
	}
	recharge := cfg.NewRecharge()
	cfg.Policy.Reset()

	m := len(cfg.Dists)
	next := make([]int64, m)
	last := make([]int64, m)
	eventSrcs := make([]*rng.Source, m)
	for i, d := range cfg.Dists {
		eventSrcs[i] = root.Split(uint64(100 + i))
		next[i] = int64(d.Sample(eventSrcs[i]))
	}

	res := &MultiPoIResult{Slots: cfg.Slots}
	res.PerPoI = make([]struct{ Events, Captures int64 }, m)
	cost := cfg.Params.ActivationCost()
	ages := make([]int, m)

	for t := int64(1); t <= cfg.Slots; t++ {
		battery.Recharge(recharge.Next(rechargeSrc))
		for i := range ages {
			ages[i] = int(t - last[i])
		}
		poi, wantActive := cfg.Policy.Choose(t, ages, battery.Level())
		if poi < 0 || poi >= m {
			return nil, fmt.Errorf("sim: policy chose PoI %d of %d", poi, m)
		}
		active := wantActive && battery.CanConsume(cost)
		if active {
			battery.Consume(cfg.Params.Delta1)
		}
		for i, d := range cfg.Dists {
			if t != next[i] {
				continue
			}
			res.Events++
			res.PerPoI[i].Events++
			if active && i == poi {
				battery.Consume(cfg.Params.Delta2)
				res.Captures++
				res.PerPoI[i].Captures++
			}
			last[i] = t
			next[i] = t + int64(d.Sample(eventSrcs[i]))
		}
	}
	if res.Events > 0 {
		res.QoM = float64(res.Captures) / float64(res.Events)
	}
	return res, nil
}
