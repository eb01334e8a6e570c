package sim

import (
	"eventcap/internal/energy"
	"eventcap/internal/rng"
)

// batchIndepWorker is one chunk's replication state for a decoupled
// ModeAll+PartialInfo fleet (plan.indep != nil; coordinated fleets run
// the kernel's loop, fleetRun.run): per-sensor streams and recharge
// processes, one battery reset per sensor per replication, and reusable
// event/outcome buffers. Replication r reproduces runIndependent at
// Seed + r: same stream layout (event Split(1), a discarded Split(2),
// recharge Split(100+s), decision Split(200+s)), same shared event
// trajectory, the same compiled per-sensor loop (indepSensorPlan.run).
// The single battery is exact because sensors never interact.
type batchIndepWorker struct {
	root, eventSrc, scratch rng.Source

	rechargeSrcs []rng.Source
	decisionSrcs []rng.Source
	battery      *energy.Battery
	rechs        []energy.FastForwarder
	rechRsts     []resettable

	eventBuf    []int64
	capturedBuf []bool
	deniedBuf   []bool
}

func newBatchIndepWorker(cfg *Config, plan *batchPlan) (*batchIndepWorker, error) {
	n := len(plan.indep)
	b, err := energy.NewBattery(cfg.BatteryCap, cfg.InitialBattery)
	if err != nil {
		return nil, err
	}
	w := &batchIndepWorker{
		rechargeSrcs: make([]rng.Source, n),
		decisionSrcs: make([]rng.Source, n),
		battery:      b,
		rechs:        make([]energy.FastForwarder, n),
		rechRsts:     make([]resettable, n),
	}
	for s := 0; s < n; s++ {
		rech, rst, err := chunkRecharge(cfg, plan.indep[s].recharge)
		if err != nil {
			return nil, err
		}
		w.rechs[s], w.rechRsts[s] = rech, rst
	}
	return w, nil
}

func (w *batchIndepWorker) simulate(cfg *Config, plan *batchPlan, rep uint64, sensors []SensorStats, o *observer) (events, captures int64) {
	n := len(sensors)
	w.root.Reseed(cfg.Seed+rep, 0x5eed) // seedflow:ok replication-root: rep r must equal runIndependent's root at Seed+r
	w.root.SplitInto(&w.eventSrc, 1)
	// runIndependent discards Split(2); the discard still consumes one
	// root draw, keeping the remaining streams aligned.
	w.root.SplitInto(&w.scratch, 2)
	for s := 0; s < n; s++ {
		w.root.SplitInto(&w.rechargeSrcs[s], uint64(100+s))
	}
	for s := 0; s < n; s++ {
		w.root.SplitInto(&w.decisionSrcs[s], uint64(200+s))
	}

	// One shared event trajectory, drawn exactly as runIndependent draws
	// it (an assumed event at slot 0 seeds the first gap).
	quant := plan.quant
	d := cfg.Dist
	w.eventBuf = w.eventBuf[:0]
	if quant != nil {
		for t := int64(quant.Sample(&w.eventSrc)); t <= cfg.Slots; t += int64(quant.Sample(&w.eventSrc)) {
			w.eventBuf = append(w.eventBuf, t)
		}
	} else {
		for t := int64(d.Sample(&w.eventSrc)); t <= cfg.Slots; t += int64(d.Sample(&w.eventSrc)) {
			w.eventBuf = append(w.eventBuf, t)
		}
	}
	eventSlots := w.eventBuf
	if cap(w.capturedBuf) < len(eventSlots) {
		w.capturedBuf = make([]bool, len(eventSlots))
		w.deniedBuf = make([]bool, len(eventSlots))
	}
	capturedAny := w.capturedBuf[:len(eventSlots)]
	deniedAny := w.deniedBuf[:len(eventSlots)]
	for i := range capturedAny {
		capturedAny[i] = false
		deniedAny[i] = false
	}

	for s := 0; s < n; s++ {
		w.battery.Reset(cfg.InitialBattery)
		if w.rechRsts[s] != nil {
			w.rechRsts[s].Reset()
		}
		// Battery occupancy keeps the batch convention (replication 0
		// only) and the independent engine's (sensor 0).
		so := *o
		so.sampling = o.sampling && s == 0
		sensors[s] = plan.indep[s].run(cfg, w.battery, w.rechs[s], &w.rechargeSrcs[s], &w.decisionSrcs[s],
			cfg.Slots, eventSlots, capturedAny, deniedAny, &so)
	}

	events = int64(len(eventSlots))
	for i, slot := range eventSlots {
		if capturedAny[i] {
			captures++
		}
		o.event(slot, capturedAny[i], deniedAny[i])
	}
	return events, captures
}
