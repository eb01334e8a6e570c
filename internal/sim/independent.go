package sim

import (
	"fmt"
	"math"

	"eventcap/internal/core"
	"eventcap/internal/energy"
	"eventcap/internal/parallel"
	"eventcap/internal/rng"
	"eventcap/internal/trace"
)

// indepSensorPlan is one decoupled sensor's compiled fast path in the
// independent-sensor engine (ModeAll + PartialInfo): its own activation
// table over its own capture clock, plus its own prepared recharge.
// Unlike the round-robin plan the tables need not match across sensors —
// each sensor's trajectory is fully private.
type indepSensorPlan struct {
	table    *core.ActivationTable
	state    StateKind
	modulus  int64
	policy   Policy
	recharge energy.FastForwarder
}

// compileIndependent probes whether every sensor of an independent
// configuration (cfg.independentSensors() == true) can run the compiled
// per-sensor loop. Fault injection stays eligible — a dead independent
// sensor is a clean truncation of its own loop, not an interleaving
// change. Slot tracing needs the interpreted per-slot view.
func compileIndependent(cfg *Config) ([]indepSensorPlan, fallback) {
	if cfg.Tracer != nil {
		return nil, fallback{"tracer", "slot tracing of independent sensors"}
	}
	plans := make([]indepSensorPlan, cfg.N)
	for s := 0; s < cfg.N; s++ {
		pol := cfg.NewPolicy(s)
		comp, ok := pol.(Compilable)
		if !ok {
			return nil, fallback{"policy", fmt.Sprintf("policy %s is not compilable", pol.Name())}
		}
		cp, err := comp.Compile()
		if err != nil {
			return nil, fallback{"policy", err.Error()}
		}
		if cp.Table == nil || cp.State == 0 {
			return nil, fallback{"policy", fmt.Sprintf("policy %s compiled to an incomplete plan", pol.Name())}
		}
		if cp.State == StateSinceEvent {
			// Independent sensors are partial-information by definition.
			return nil, fallback{"info", fmt.Sprintf("policy %s needs full information", pol.Name())}
		}
		if cp.State == StateSlotPhase && cp.Modulus < 1 {
			return nil, fallback{"policy", fmt.Sprintf("policy %s compiled with modulus %d", pol.Name(), cp.Modulus)}
		}
		rech := cfg.NewRecharge()
		ff, ok := rech.(energy.FastForwarder)
		if !ok {
			return nil, fallback{"recharge", fmt.Sprintf("recharge %s cannot fast-forward", rech.Name())}
		}
		if prep, ok := rech.(energy.FastForwardPreparer); ok {
			prep.PrepareFastForward(prepareRunLength)
		}
		plans[s] = indepSensorPlan{
			table:    cp.Table,
			state:    cp.State,
			modulus:  int64(cp.Modulus),
			policy:   pol,
			recharge: ff,
		}
	}
	return plans, fallback{}
}

// run executes one decoupled sensor's compiled loop over slots [1, limit]
// against the shared event trajectory eventSlots: table lookups plus O(1)
// sleep-run fast-forwards over the sensor's private capture clock (or
// slot phase) — the single-sensor kernel's zero-run fast-forward applies
// verbatim. It marks the events the sensor captured, or tried to capture
// and was energy-denied, and returns the sensor's stats; events slept
// through are misses for this sensor unless a peer catches them, which
// the caller decides from the union. rech is the sensor's recharge
// process: the plan's own, or a batch chunk's instance.
func (sp *indepSensorPlan) run(cfg *Config, b *energy.Battery, rech energy.FastForwarder, rSrc, dSrc *rng.Source,
	limit int64, eventSlots []int64, captured, denied []bool, o *observer) SensorStats {
	cost := cfg.Params.ActivationCost()
	delta1, delta2 := cfg.Params.Delta1, cfg.Params.Delta2
	bern, isBern := rech.(*energy.Bernoulli)
	var bq, bc float64
	if isBern {
		bq, bc = bern.Q(), bern.C()
	}
	var stats SensorStats
	countdown := o.stride()
	lastCapture := int64(0)
	ei := 0
	t := int64(1)
	for t <= limit {
		var st int64
		if sp.state == StateSinceCapture {
			st = t - lastCapture
		} else {
			st = (t-1)%sp.modulus + 1
		}
		if z := sp.table.RunFrom(int(st)); z > 0 {
			run := z
			if sp.state == StateSlotPhase {
				if wrap := sp.modulus - st + 1; run > wrap {
					run = wrap
				}
			}
			if left := limit - t + 1; run > left {
				run = left
			}
			rech.FastForward(b, run, rSrc)
			end := t + run - 1
			for ei < len(eventSlots) && eventSlots[ei] <= end {
				ei++
			}
			o.sleepRun(run, 0)
			t += run
			continue
		}
		if isBern {
			if rSrc.Bernoulli(bq) {
				b.Recharge(bc)
			}
		} else {
			b.Recharge(rech.Next(rSrc))
		}
		event := ei < len(eventSlots) && eventSlots[ei] == t
		p := sp.table.At(int(st))
		// Awake slots have p > 0, so the decision draw below is always
		// consumed — matching the interpreted loop's
		// draw-per-positive-probability discipline.
		if dSrc.Bernoulli(p) {
			if !b.CanConsume(cost) {
				stats.Denied++
				if event {
					denied[ei] = true
				}
			} else {
				b.Consume(delta1)
				stats.Activations++
				if event {
					b.Consume(delta2)
					stats.Captures++
					captured[ei] = true
					lastCapture = t
				}
			}
		}
		if event {
			ei++
		}
		// Battery occupancy on the compiled path follows the kernel
		// convention: every stride-th awake (non-skipped) slot.
		countdown--
		if countdown == 0 {
			countdown = batterySampleStride
			o.battery(b.Level())
		}
		t++
	}
	stats.EnergyConsumed = b.Consumed()
	stats.OverflowLost = b.OverflowLost()
	stats.FinalBattery = b.Level()
	return stats
}

// runIndependent simulates uncoordinated PartialInfo sensors with one
// pool job per sensor. The event trajectory is drawn once up front (all
// sensors watch the same PoI) and each sensor gets its own decision
// stream root.Split(200+s), so the run is deterministic for any worker
// count. Note the seed layout differs from the sequential engine's
// shared decision stream: this configuration's outputs are reproducible
// against themselves, not against a hypothetical shared-stream run.
//
// When plans is non-nil (compileIndependent succeeded) each sensor job
// runs the compiled per-sensor loop instead of interpreting the policy
// slot by slot. The two loops consume each sensor's streams identically
// (one recharge draw per live slot, one decision draw per
// positive-probability slot), so for deterministic recharge the compiled
// path is byte-identical to the interpreted one; under Bernoulli it is
// equal in law, the standard FastForwarder clause.
func runIndependent(cfg Config, plans []indepSensorPlan) (*Result, error) {
	ex := cfg.Span.Child("exec.independent")
	defer ex.End()
	ex.Count("slots", cfg.Slots)
	ex.Count("sensors", int64(cfg.N))
	if plans != nil {
		ex.Count("compiled", 1)
	}
	root := rng.New(cfg.Seed, 0x5eed) // seedflow:ok run-root: mirrors Run's stream layout exactly
	eventSrc := root.Split(1)
	_ = root.Split(2) // keep recharge streams aligned with the sequential layout
	rechargeSrcs := make([]*rng.Source, cfg.N)
	for s := 0; s < cfg.N; s++ {
		rechargeSrcs[s] = root.Split(uint64(100 + s))
	}
	decisionSrcs := make([]*rng.Source, cfg.N)
	for s := 0; s < cfg.N; s++ {
		decisionSrcs[s] = root.Split(uint64(200 + s))
	}

	// One shared event trajectory, drawn exactly as the sequential engine
	// draws it (an assumed event at slot 0 seeds the first gap).
	var eventSlots []int64
	for t := int64(cfg.Dist.Sample(eventSrc)); t <= cfg.Slots; t += int64(cfg.Dist.Sample(eventSrc)) {
		eventSlots = append(eventSlots, t)
	}

	cost := cfg.Params.ActivationCost()
	o := newObserver(&cfg, trace.EngineIndependent)
	// A full-trace writer is a single stream, so the sensor jobs run on
	// one worker, in index order — the per-sensor decomposition already
	// makes results identical for every worker count, so forcing
	// sequential execution changes only the trace file's record order.
	// A flight recorder alone is safe concurrently: each job writes
	// only its own sensor's ring.
	workers := cfg.Workers
	if o.w != nil {
		workers = 1
	}
	if o.tr != nil {
		o.start(&cfg, cfg.N, cfg.NewPolicy(0).Name(), cfg.NewRecharge().Name())
	}

	type sensorOut struct {
		stats    SensorStats
		captured []bool // indexed like eventSlots
		denied   []bool // energy-denied attempts per event
		m        *Metrics
	}
	outs, err := parallel.MapInner(workers, cfg.N, func(s int) (sensorOut, error) {
		defer cfg.Progress.FinishWork(cfg.Slots)
		b, err := energy.NewBattery(cfg.BatteryCap, cfg.InitialBattery)
		if err != nil {
			return sensorOut{}, err
		}
		rSrc, dSrc := rechargeSrcs[s], decisionSrcs[s]
		failSlot := int64(math.MaxInt64)
		if fs, ok := cfg.FailAt[s]; ok {
			failSlot = fs
		}
		// Each job observes into its own part. Battery occupancy is
		// defined on sensor 0, so only sensor 0's job samples — it alone
		// touches the shared stats probe, and the event feed below runs
		// after the jobs join: single-threaded access throughout.
		so := newPart(&cfg, trace.EngineIndependent)
		if s == 0 {
			so.sp, so.sampling = o.sp, o.sampling
		}
		out := sensorOut{
			captured: make([]bool, len(eventSlots)),
			denied:   make([]bool, len(eventSlots)),
			m:        so.m,
		}
		if plans != nil {
			// A failed sensor truncates its own loop at failSlot-1 —
			// independent sensors share nothing, so the truncation is
			// exact, and fault injection stays eligible.
			sp := &plans[s]
			sp.policy.Reset()
			limit := cfg.Slots
			if failSlot-1 < limit {
				limit = failSlot - 1
			}
			out.stats = sp.run(&cfg, b, sp.recharge, rSrc, dSrc, limit, eventSlots, out.captured, out.denied, &so)
			return out, nil
		}
		recharge := cfg.NewRecharge()
		pol := cfg.NewPolicy(s)
		pol.Reset()
		lastCapture := int64(0)
		ei := 0
		for t := int64(1); t <= cfg.Slots && t < failSlot; t++ {
			amt := recharge.Next(rSrc)
			b.Recharge(amt)
			event := ei < len(eventSlots) && eventSlots[ei] == t
			st := SlotState{
				Slot:         t,
				SinceEvent:   -1,
				SinceCapture: int(t - lastCapture),
				Battery:      b.Level(),
			}
			p := pol.ActivationProb(st)
			active, denied := false, false
			switch {
			case p <= 0 || !dSrc.Bernoulli(p):
				// Asleep: no draw consumed when p <= 0, one otherwise.
			case !b.CanConsume(cost):
				out.stats.Denied++
				denied = true
				if event {
					out.denied[ei] = true
				}
			default:
				active = true
				b.Consume(cfg.Params.Delta1)
				out.stats.Activations++
				if event {
					b.Consume(cfg.Params.Delta2)
					out.stats.Captures++
					out.captured[ei] = true
					lastCapture = t
				}
			}
			pol.Observe(outcomeFor(cfg.Info, active, event, active && event))
			if so.tr != nil {
				so.slot(t, s, slotFlags(event, active, denied), -1, int64(st.SinceCapture), p, st.Battery, amt)
			}
			if event {
				ei++
			}
			// Battery occupancy is defined on sensor 0's end-of-slot
			// level, matching the sequential engine.
			if so.sampling && t&(batterySampleStride-1) == 0 {
				so.battery(b.Level())
			}
		}
		out.stats.EnergyConsumed = b.Consumed()
		out.stats.OverflowLost = b.OverflowLost()
		out.stats.FinalBattery = b.Level()
		if so.tr != nil && failSlot <= cfg.Slots {
			so.tr.Fault(s, failSlot)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	engine := EngineReference
	if plans != nil {
		engine = EngineKernel
	}
	res := &Result{
		Slots:   cfg.Slots,
		Events:  int64(len(eventSlots)),
		Sensors: make([]SensorStats, cfg.N),
		Engine:  engine,
	}
	capturedAny := make([]bool, len(eventSlots))
	deniedAny := make([]bool, len(eventSlots))
	for s, out := range outs {
		res.Sensors[s] = out.stats
		for i := range eventSlots {
			capturedAny[i] = capturedAny[i] || out.captured[i]
			deniedAny[i] = deniedAny[i] || out.denied[i]
		}
		if o.m != nil {
			o.m.Merge(out.m)
		}
	}
	for i, slot := range eventSlots {
		if capturedAny[i] {
			res.Captures++
		}
		o.event(slot, capturedAny[i], deniedAny[i])
		if o.tr != nil {
			// Aggregate event-outcome markers: per-sensor records only
			// say what each sensor did; the markers pin down each event
			// slot's run-level outcome (captured by anyone / denied by
			// someone) even when every sensor slept or had already failed.
			flags := trace.FlagEvent
			if capturedAny[i] {
				flags |= trace.FlagCaptured
			} else if deniedAny[i] {
				flags |= trace.FlagDenied
			}
			o.marker(slot, flags, -1, -1)
		}
	}
	o.finish(res)
	return res, nil
}
