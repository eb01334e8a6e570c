package sim

import (
	"eventcap/internal/obs"
)

// batteryBins mirrors obs.BatteryBins for the observer's binning.
const batteryBins = obs.BatteryBins

// batterySampleStride is the battery-observation stride: occupancy is
// sampled on every stride-th slot (per-slot engines) or every stride-th
// awake slot (compiled engines) rather than on all of them, so sampling
// costs the slot loops little (a full observation costs several ns — a
// large fraction of a ~30ns reference slot). The battery level mixes over thousands of slots, so a 32-slot
// stride loses nothing statistically; ObservedSlots is always the
// denominator. Must be a power of two (the per-slot stride check
// compiles to one AND).
const batterySampleStride = 32

// Metrics is the per-run observability block every run collects into
// Result.Metrics: the energy accounting behind the single QoM number.
// Collection never draws from any random stream and allocates nothing
// in the slot loop (the struct is fixed-size and allocated once per
// run).
//
// Every event of the run falls into exactly one of three classes, so
//
//	Captures + MissAsleep + MissNoEnergy == Events
//
// always holds (Result.Captures is the capture count):
//
//   - captured: some sensor activated in the event's slot and had the
//     energy for it;
//   - MissNoEnergy: no sensor captured, but at least one deciding
//     sensor chose to activate and was blocked by the energy gate —
//     the miss is energy starvation;
//   - MissAsleep: every deciding sensor slept through the slot (policy
//     choice, zero activation probability, or a dead sensor) — the
//     miss is the policy's sleeping schedule.
//
// Battery occupancy (ObservedSlots, BatteryFracSum, BatteryHist,
// EnergyOutageSlots) tracks sensor 0's end-of-slot level (after
// recharge and any consumption) as a fraction of capacity. The per-slot
// engines sample every batterySampleStride-th slot (a fixed stride that
// keeps the instrumented loop inside the overhead budget); the compiled
// engines sample every batterySampleStride-th awake slot
// (fast-forwarded sleep runs are skipped wholesale — that is the point
// of the kernel), with KernelSlotsFastForwarded counting the slots they
// skipped. ObservedSlots is always the denominator for the battery
// statistics. The run observer (observer.battery) is the one place that
// bins a sample.
type Metrics struct {
	// MissAsleep counts events no sensor attempted to capture.
	MissAsleep int64
	// MissNoEnergy counts events where an activation attempt was blocked
	// by the energy gate and no sensor captured.
	MissNoEnergy int64
	// WastedActivations counts activations spent on slots without an
	// event (energy burned for no capture opportunity). An activation
	// on an event slot always captures, so this equals the per-sensor
	// sum of Activations − Captures; the engines derive it that way
	// after the loop instead of branching per activation.
	WastedActivations int64
	// EnergyOutageSlots counts observed slots where sensor 0 ended the
	// slot unable to afford a full capture (level below delta1+delta2).
	EnergyOutageSlots int64
	// ObservedSlots is the number of slots battery statistics sampled.
	ObservedSlots int64
	// BatteryFracSum accumulates sensor 0's level/capacity per observed
	// slot; BatteryFracSum / ObservedSlots is the time-weighted mean
	// battery occupancy over the observed slots.
	BatteryFracSum float64
	// BatteryHist bins the observed occupancy fractions into
	// obs.BatteryBins equal-width bins over [0, 1].
	BatteryHist [obs.BatteryBins]int64
	// KernelRuns counts the kernel's fast-forwarded sleep runs, and
	// KernelSlotsFastForwarded the slots they skipped; both stay zero on
	// the reference engine.
	KernelRuns               int64
	KernelSlotsFastForwarded int64
	// KernelSlotsAlwaysOn counts the awake slots the kernel advanced in
	// always-on runs (probability one, no event, untraced) rather than
	// deciding them one at a time; like KernelSlotsFastForwarded it counts
	// slots, not sensor-slots, and stays zero on the reference engine.
	KernelSlotsAlwaysOn int64
}

// MeanBatteryFrac returns the time-weighted mean occupancy fraction
// over the observed slots (0 when nothing was observed).
func (m *Metrics) MeanBatteryFrac() float64 {
	if m.ObservedSlots == 0 {
		return 0
	}
	return m.BatteryFracSum / float64(m.ObservedSlots)
}

// Merge adds o's counters into m (combining a batch's per-chunk
// partials; only replication 0's part samples battery occupancy, so
// batch occupancy is replication 0's).
func (m *Metrics) Merge(o *Metrics) {
	m.MissAsleep += o.MissAsleep
	m.MissNoEnergy += o.MissNoEnergy
	m.WastedActivations += o.WastedActivations
	m.EnergyOutageSlots += o.EnergyOutageSlots
	m.ObservedSlots += o.ObservedSlots
	m.BatteryFracSum += o.BatteryFracSum
	for i := range m.BatteryHist {
		m.BatteryHist[i] += o.BatteryHist[i]
	}
	m.KernelRuns += o.KernelRuns
	m.KernelSlotsFastForwarded += o.KernelSlotsFastForwarded
	m.KernelSlotsAlwaysOn += o.KernelSlotsAlwaysOn
}

// publish folds the completed run into the process-wide totals that
// cmd/experiments snapshots into run manifests. Called once per run,
// outside the slot loop.
func (m *Metrics) publish(res *Result) {
	obs.SimEvents.Add(res.Events)
	obs.SimCaptures.Add(res.Captures)
	obs.SimMissAsleep.Add(m.MissAsleep)
	obs.SimMissNoEnergy.Add(m.MissNoEnergy)
	obs.SimWastedActivations.Add(m.WastedActivations)
	obs.SimOutageSlots.Add(m.EnergyOutageSlots)
	obs.SimObservedSlots.Add(m.ObservedSlots)
	obs.SimBatteryFracSum.Add(m.BatteryFracSum)
	for i, n := range m.BatteryHist {
		obs.SimBatteryHist.Add(i, n)
	}
	obs.SimKernelRuns.Add(m.KernelRuns)
	obs.SimKernelSlots.Add(m.KernelSlotsFastForwarded)
	obs.SimKernelOnSlots.Add(m.KernelSlotsAlwaysOn)
}

// recordEngine counts which engine actually executed a run.
func recordEngine(e Engine) {
	switch e {
	case EngineKernel:
		obs.SimRunsKernel.Inc()
	default:
		obs.SimRunsReference.Inc()
	}
}
