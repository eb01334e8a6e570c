package sim

import (
	"eventcap/internal/energy"
	"eventcap/internal/rng"
)

// Fleet-shaped batch workers. Two shapes exist beyond the single-sensor
// batchWorker:
//
//   - batchMultiWorker: coordinated round-robin fleets (plan.kernel.n >
//     1). One shared decision state, N batteries, N recharge streams —
//     the runFleetKernel loop with the batch accelerations (quantile event
//     sampling). There is no awake-run batching here: decision
//     ownership rotates per slot, so a certain-activation run spans
//     several batteries and the closed-form guard no longer applies.
//     Replication r is therefore byte-identical to runFleetKernel at
//     Seed + r whenever that kernel is byte-deterministic, and equal in
//     law under Bernoulli recharge (the FastForwarder clause).
//
//   - batchIndepWorker: decoupled ModeAll+PartialInfo fleets
//     (plan.indep != nil). Replication r reproduces runIndependent at
//     Seed + r: same stream layout (event Split(1), a discarded
//     Split(2), recharge Split(100+s), decision Split(200+s)), same
//     shared event trajectory, the same compiled per-sensor loop
//     (indepSensorPlan.run). The battery is a single instance reset per
//     sensor — sensors never interact, so sequential reuse is exact.

// batchMultiWorker is one chunk's replication state for a round-robin
// fleet: per-sensor batteries, recharge processes and streams, reset or
// reseeded in place per replication.
type batchMultiWorker struct {
	root, eventSrc, decisionSrc rng.Source

	rechargeSrcs []rng.Source
	batteries    []energy.Battery
	rechs        []energy.FastForwarder
	rechRsts     []resettable

	allBern      bool
	bernQ, bernC []float64
}

func newBatchMultiWorker(cfg *Config, plan *batchPlan) (*batchMultiWorker, error) {
	n := plan.kernel.n
	w := &batchMultiWorker{
		rechargeSrcs: make([]rng.Source, n),
		batteries:    make([]energy.Battery, n),
		rechs:        make([]energy.FastForwarder, n),
		rechRsts:     make([]resettable, n),
		allBern:      true,
		bernQ:        make([]float64, n),
		bernC:        make([]float64, n),
	}
	for s := 0; s < n; s++ {
		b, err := energy.NewBattery(cfg.BatteryCap, cfg.InitialBattery)
		if err != nil {
			return nil, err
		}
		w.batteries[s] = *b
		rech, rst, err := chunkRecharge(cfg, plan.kernel.recharges[s])
		if err != nil {
			return nil, err
		}
		w.rechs[s], w.rechRsts[s] = rech, rst
		if bern, ok := rech.(*energy.Bernoulli); ok {
			w.bernQ[s], w.bernC[s] = bern.Q(), bern.C()
		} else {
			w.allBern = false
		}
	}
	return w, nil
}

func (w *batchMultiWorker) simulate(cfg *Config, plan *batchPlan, rep uint64, sensors []SensorStats, o *observer) (events, captures int64) {
	n := len(sensors)
	w.root.Reseed(cfg.Seed+rep, 0x5eed) // seedflow:ok replication-root: rep r must equal the kernel's root at Seed+r
	w.root.SplitInto(&w.eventSrc, 1)
	w.root.SplitInto(&w.decisionSrc, 2)
	for s := 0; s < n; s++ {
		w.root.SplitInto(&w.rechargeSrcs[s], uint64(100+s))
		w.batteries[s].Reset(cfg.InitialBattery)
		if w.rechRsts[s] != nil {
			w.rechRsts[s].Reset()
		}
	}

	table := plan.table
	quant := plan.quant
	d := cfg.Dist
	state := plan.kernel.state
	modulus := plan.kernel.modulus
	cost := cfg.Params.ActivationCost()
	delta1, delta2 := cfg.Params.Delta1, cfg.Params.Delta2
	isBern := w.allBern
	countdown := o.stride()

	// The paper assumes an event (and capture) at slot 0.
	lastEvent, lastCapture := int64(0), int64(0)
	var nextEvent int64
	if quant != nil {
		nextEvent = int64(quant.Sample(&w.eventSrc))
	} else {
		nextEvent = int64(d.Sample(&w.eventSrc))
	}
	nn := int64(n)

	t := int64(1)
	for t <= cfg.Slots {
		var st int64
		switch state {
		case StateSinceEvent:
			st = t - lastEvent
		case StateSinceCapture:
			st = t - lastCapture
		default:
			st = (t-1)%modulus + 1
		}

		if z := table.ZeroRunFrom(int(st)); z > 0 {
			// Shared sleep run, exactly as runFleetKernel executes it: the
			// whole fleet stays silent and every battery fast-forwards
			// through its own stream.
			run := z
			if state == StateSlotPhase {
				if wrap := modulus - st + 1; run > wrap {
					run = wrap
				}
			}
			if left := cfg.Slots - t + 1; run > left {
				run = left
			}
			eventsBefore := events
			if state == StateSinceEvent && nextEvent-t+1 <= run {
				run = nextEvent - t + 1
				for s := 0; s < n; s++ {
					w.rechs[s].FastForward(&w.batteries[s], run, &w.rechargeSrcs[s])
				}
				events++
				lastEvent = nextEvent
				if quant != nil {
					nextEvent += int64(quant.Sample(&w.eventSrc))
				} else {
					nextEvent += int64(d.Sample(&w.eventSrc))
				}
			} else {
				for s := 0; s < n; s++ {
					w.rechs[s].FastForward(&w.batteries[s], run, &w.rechargeSrcs[s])
				}
				end := t + run - 1
				for nextEvent <= end {
					events++
					lastEvent = nextEvent
					if quant != nil {
						nextEvent += int64(quant.Sample(&w.eventSrc))
					} else {
						nextEvent += int64(d.Sample(&w.eventSrc))
					}
				}
			}
			o.sleepRun(run, events-eventsBefore)
			t += run
			continue
		}

		// Awake slot: every sensor recharges, the in-charge one decides.
		if isBern {
			for s := 0; s < n; s++ {
				if w.rechargeSrcs[s].Bernoulli(w.bernQ[s]) {
					w.batteries[s].Recharge(w.bernC[s])
				}
			}
		} else {
			for s := 0; s < n; s++ {
				w.batteries[s].Recharge(w.rechs[s].Next(&w.rechargeSrcs[s]))
			}
		}
		event := t == nextEvent
		charge := int((t - 1) % nn)
		battery := &w.batteries[charge]
		p := table.At(int(st))
		capturedHere, deniedHere := false, false
		if w.decisionSrc.Bernoulli(p) {
			if !battery.CanConsume(cost) {
				sensors[charge].Denied++
				deniedHere = true
			} else {
				battery.Consume(delta1)
				sensors[charge].Activations++
				if event {
					battery.Consume(delta2)
					sensors[charge].Captures++
					captures++
					lastCapture = t
					capturedHere = true
				}
			}
		}
		if event {
			events++
			lastEvent = t
			if quant != nil {
				nextEvent = t + int64(quant.Sample(&w.eventSrc))
			} else {
				nextEvent = t + int64(d.Sample(&w.eventSrc))
			}
			o.event(t, capturedHere, deniedHere)
		}
		countdown--
		if countdown == 0 {
			countdown = batterySampleStride
			o.battery(w.batteries[0].Level())
		}
		t++
	}

	for s := 0; s < n; s++ {
		sensors[s].EnergyConsumed = w.batteries[s].Consumed()
		sensors[s].OverflowLost = w.batteries[s].OverflowLost()
		sensors[s].FinalBattery = w.batteries[s].Level()
	}
	return events, captures
}

// batchIndepWorker is one chunk's replication state for a decoupled
// fleet: per-sensor streams and recharge processes, one battery reset
// per sensor per replication, and reusable event/outcome buffers.
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
