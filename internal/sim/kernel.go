package sim

import (
	"fmt"
	"math"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/obs"
	"eventcap/internal/rng"
	"eventcap/internal/trace"
)

// Engine selects the simulation engine.
type Engine int

const (
	// EngineAuto (the default) uses the compiled kernel whenever the
	// configuration is eligible and the reference engine otherwise.
	EngineAuto Engine = iota
	// EngineReference forces the interpreted per-slot engine.
	EngineReference
	// EngineKernel forces the compiled kernel; Run fails when the
	// configuration is ineligible.
	EngineKernel
	// EngineBatch forces the mega-batch engine (Config.Batch replications
	// of a compiled single-sensor configuration in one call); Run fails
	// when the configuration is ineligible. EngineAuto picks it on its own
	// whenever Batch > 1 and the configuration compiles.
	EngineBatch
)

// ParseEngine maps the -kernel flag values onto engines.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto":
		return EngineAuto, nil
	case "on":
		return EngineKernel, nil
	case "off":
		return EngineReference, nil
	case "batch":
		return EngineBatch, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (want auto, on, off, or batch)", s)
}

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineReference:
		return "reference"
	case EngineKernel:
		return "kernel"
	case EngineBatch:
		return "batch"
	default:
		return "auto"
	}
}

// StateKind identifies which scalar drives a compiled policy's activation
// probability. The kernel fast-forwards differently per kind because each
// state evolves differently across a sleep run.
type StateKind int

const (
	// StateSinceEvent is the full-information state h_i = slots since the
	// last event. It resets when an event occurs — even one the sensor
	// sleeps through — so a sleep run ends at the next event slot.
	StateSinceEvent StateKind = iota + 1
	// StateSinceCapture is the partial-information state f_i = slots since
	// the last capture. A sleeping sensor cannot capture, so the state
	// ticks up deterministically across any sleep run; events occurring
	// inside the run are drained in one batch.
	StateSinceCapture
	// StateSlotPhase is the absolute slot phase (t-1) mod Modulus + 1 used
	// by the periodic baseline; it too is untouched by sleeping.
	StateSlotPhase
)

// CompiledPolicy is a stationary policy lowered to a dense activation
// table over one of the supported state kinds.
type CompiledPolicy struct {
	Table *core.ActivationTable
	State StateKind
	// Modulus is the phase period for StateSlotPhase (ignored otherwise).
	Modulus int
}

// Compilable is implemented by policies the kernel can execute. A
// compilable policy must be stateless at runtime: ActivationProb may
// depend only on the declared state kind, and Observe/Reset must be
// no-ops, because the kernel never delivers outcomes for skipped slots.
type Compilable interface {
	Policy
	Compile() (CompiledPolicy, error)
}

// prepareRunLength is the sleep-run length hint handed to
// FastForwardPreparer recharges at compile time: long enough to cover the
// inter-arrival gaps of every paper workload, small enough that the
// precomputed tables stay in cache.
const prepareRunLength = 128

// fallback is a declined fast-engine dispatch: a fixed machine slug
// keying one of the sim.engine.fallback.* counters, plus the
// human-readable reason used in forced-engine errors. The slug set is
// closed — every compile reject below maps onto exactly one counter, so
// production runs that land on an interpreted path are diagnosable from
// the metrics alone.
type fallback struct {
	slug   string
	reason string
}

// record counts the decline. Run calls it only on EngineAuto dispatch
// decisions — a forced engine either runs or errors, and neither is a
// fallback.
func (f fallback) record() {
	switch f.slug {
	case "mode":
		obs.SimFallbackMode.Inc()
	case "fault":
		obs.SimFallbackFault.Inc()
	case "policy":
		obs.SimFallbackPolicy.Inc()
	case "info":
		obs.SimFallbackInfo.Inc()
	case "recharge":
		obs.SimFallbackRecharge.Inc()
	case "tracer":
		obs.SimFallbackTracer.Inc()
	case "mismatch":
		obs.SimFallbackMismatch.Inc()
	}
}

// kernelPlan is a validated, instantiated kernel configuration: the
// shared activation table plus one policy and one prepared recharge
// process per sensor (n == 1 for a single sensor).
type kernelPlan struct {
	table   *core.ActivationTable
	state   StateKind
	modulus int64

	n         int
	policies  []Policy
	recharges []energy.FastForwarder
}

// samePlan reports whether two compiled policies lowered to the same
// table, bit for bit. Round-robin sensors share one activation table, so
// every sensor must compile identically — equal-in-law is not enough for
// the kernel's byte-identity contract.
func samePlan(a, b CompiledPolicy) bool {
	if a.State != b.State || a.Modulus != b.Modulus ||
		len(a.Table.Prob) != len(b.Table.Prob) {
		return false
	}
	if math.Float64bits(a.Table.Tail) != math.Float64bits(b.Table.Tail) {
		return false
	}
	for i := range a.Table.Prob {
		if math.Float64bits(a.Table.Prob[i]) != math.Float64bits(b.Table.Prob[i]) {
			return false
		}
	}
	return true
}

// compileKernel probes whether cfg (already validated) can run on the
// kernel. It returns the plan, or nil and the fallback (counter slug +
// human-readable reason). Checks are ordered cheapest first; factories
// only run when the structural checks pass.
//
// Multi-sensor configurations compile when the mode is ModeRoundRobin:
// the in-charge sensor's decision state (h, f, or slot phase) is shared
// across the fleet — h and the broadcast f reset on global occurrences,
// the phase is absolute — so one activation table covers every sensor,
// provided all N policies compile to identical tables.
func compileKernel(cfg *Config) (*kernelPlan, fallback) {
	if cfg.N != 1 && cfg.Mode != ModeRoundRobin {
		return nil, fallback{"mode", fmt.Sprintf("%d sensors without round-robin coordination", cfg.N)}
	}
	if len(cfg.FailAt) > 0 {
		return nil, fallback{"fault", "fault injection requested"}
	}
	if cfg.N != 1 && cfg.Tracer != nil {
		// Trace records and spans describe one battery; traced fleet runs
		// stay on the reference engine.
		return nil, fallback{"tracer", "slot tracing of a multi-sensor run"}
	}
	pol := cfg.NewPolicy(0)
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
	if cp.State == StateSinceEvent && cfg.Info != FullInfo {
		return nil, fallback{"info", fmt.Sprintf("policy %s needs full information", pol.Name())}
	}
	if cp.State == StateSlotPhase && cp.Modulus < 1 {
		return nil, fallback{"policy", fmt.Sprintf("policy %s compiled with modulus %d", pol.Name(), cp.Modulus)}
	}
	plan := &kernelPlan{
		table:     cp.Table,
		state:     cp.State,
		modulus:   int64(cp.Modulus),
		n:         cfg.N,
		policies:  make([]Policy, cfg.N),
		recharges: make([]energy.FastForwarder, cfg.N),
	}
	plan.policies[0] = pol
	for s := 1; s < cfg.N; s++ {
		ps := cfg.NewPolicy(s)
		cs, ok := ps.(Compilable)
		if !ok {
			return nil, fallback{"mismatch", fmt.Sprintf("sensor %d policy %s is not compilable", s, ps.Name())}
		}
		cps, err := cs.Compile()
		if err != nil {
			return nil, fallback{"mismatch", fmt.Sprintf("sensor %d: %v", s, err)}
		}
		if !samePlan(cp, cps) {
			return nil, fallback{"mismatch", fmt.Sprintf("sensor %d compiles to a different table than sensor 0", s)}
		}
		plan.policies[s] = ps
	}
	for s := 0; s < cfg.N; s++ {
		rech := cfg.NewRecharge()
		ff, ok := rech.(energy.FastForwarder)
		if !ok {
			return nil, fallback{"recharge", fmt.Sprintf("recharge %s cannot fast-forward", rech.Name())}
		}
		if prep, ok := rech.(energy.FastForwardPreparer); ok {
			prep.PrepareFastForward(prepareRunLength)
		}
		plan.recharges[s] = ff
	}
	return plan, fallback{}
}

// runFleetKernel executes one compiled run of the plan through the shared
// fleet loop (fleetRun.run), with tracing and the run's own recharge
// instances. A single sensor is simply the N = 1 round-robin fleet
// (PAPER.md §1: sensor s owns slots t = kN + s).
func runFleetKernel(cfg Config, plan *kernelPlan) (*Result, error) {
	n := plan.n
	ex := cfg.Span.Child("exec.kernel")
	defer ex.End()
	ex.Count("slots", cfg.Slots)
	ex.Count("sensors", int64(n))
	defer cfg.Progress.FinishWork(cfg.Slots * int64(n))
	w, err := newFleetRun(&cfg, plan, plan.recharges, nil)
	if err != nil {
		return nil, err
	}
	for _, p := range plan.policies {
		p.Reset()
	}
	res := &Result{Slots: cfg.Slots, Sensors: make([]SensorStats, n), Engine: EngineKernel}
	o := newObserver(&cfg, trace.EngineKernel)
	if o.tr != nil {
		o.start(&cfg, n, plan.policies[0].Name(), plan.recharges[0].Name())
	}
	res.Events, res.Captures = w.run(&cfg, cfg.Seed, res.Sensors, &o)
	o.finish(res)
	return res, nil
}

// fleetRun is the reusable state of the compiled coordinated loop: RNG
// values reseeded in place per run, one dense battery block, and one
// recharge process per sensor. runFleetKernel builds one for its run;
// the batch engine builds one per chunk and sweeps it across the chunk's
// replications, so replications allocate nothing.
type fleetRun struct {
	plan *kernelPlan
	// quant replaces Dist.Sample's per-gap transcendentals with an exact
	// threshold lookup (byte-identical by the dist.InverseSampler
	// contract); nil samples through Config.Dist.
	quant *dist.QuantileTable

	root, eventSrc, decisionSrc rng.Source
	rechargeSrcs                []rng.Source
	batteries                   []energy.Battery
	rechs                       []energy.FastForwarder
	// amts receives the recharge amounts Fill draws for an always-on
	// chunk or a decided slot. It lives here, not on the stack, because
	// Fill is an interface call and its arguments escape.
	amts [alwaysOnChunk]float64
}

// newFleetRun builds the loop state for plan over the given per-sensor
// recharge processes, which the fleetRun owns from then on.
func newFleetRun(cfg *Config, plan *kernelPlan, rechs []energy.FastForwarder, quant *dist.QuantileTable) (*fleetRun, error) {
	b, err := energy.NewBattery(cfg.BatteryCap, cfg.InitialBattery)
	if err != nil {
		return nil, err
	}
	n := plan.n
	w := &fleetRun{
		plan:         plan,
		quant:        quant,
		rechargeSrcs: make([]rng.Source, n),
		batteries:    make([]energy.Battery, n),
		rechs:        rechs,
	}
	for s := range w.batteries {
		w.batteries[s] = *b
	}
	return w, nil
}

// fastForward advances every sensor's battery through n slots of its own
// recharge stream.
func (w *fleetRun) fastForward(n int64) {
	for s := range w.batteries {
		w.rechs[s].FastForward(&w.batteries[s], n, &w.rechargeSrcs[s])
	}
}

// recharge applies one decided slot's recharge to every sensor, each
// from its own stream as a fill of one slot, and returns sensor 0's
// delivery (the traced record's; only single-sensor runs trace).
func (w *fleetRun) recharge() float64 {
	amt := w.amts[:1]
	var amt0 float64
	for s := range w.batteries {
		w.rechs[s].Fill(amt, &w.rechargeSrcs[s])
		w.batteries[s].Recharge(amt[0])
		if s == 0 {
			amt0 = amt[0]
		}
	}
	return amt0
}

// alwaysOnChunk is the always-on run's fill length, the slots of
// fleetRun.amts. Runs average about a dozen slots on fig3a, so a longer
// buffer would mostly add to every fleetRun's allocation.
const alwaysOnChunk = 32

// alwaysOn advances every sensor through the run slots t..t+run-1, a
// stretch of probability-one states with no event, and adds each
// sensor's activations and denials to its block. Sensor s owns the slots
// with (t'−1) mod N = s and decides on those; every sensor recharges on
// every slot from its own stream. Nothing else is shared — no decision
// draw (rng.Bernoulli(1) draws nothing) and no event — so the sensors
// advance one after another, each in one pass over its amounts, with
// every draw and float operation in the per-slot order.
func (w *fleetRun) alwaysOn(t, run int64, cost, delta1 float64, sensors []SensorStats) {
	n := len(w.batteries)
	first := int((t - 1) % int64(n))
	for s := range w.batteries {
		// own is the offset of sensor s's next slot from the chunk start.
		own := s - first
		if own < 0 {
			own += n
		}
		for left := run; left > 0; {
			amts := w.amts[:min(left, alwaysOnChunk)]
			w.rechs[s].Fill(amts, &w.rechargeSrcs[s])
			var a, d int64
			a, d, own = w.batteries[s].RunAlwaysOn(amts, own, n, cost, delta1)
			sensors[s].Activations += a
			sensors[s].Denied += d
			left -= int64(len(amts))
		}
	}
}

// gap draws the next inter-event gap from the event stream.
func (w *fleetRun) gap(d dist.Interarrival) int64 {
	if w.quant != nil {
		return int64(w.quant.Sample(&w.eventSrc))
	}
	return int64(d.Sample(&w.eventSrc))
}

// run simulates the plan once at seed into sensors (one block per
// sensor), observing into o, and returns the run's event and capture
// counts.
//
// The round-robin fleet shares one compiled activation table — the
// in-charge sensor's decision state is global (h resets on every event,
// the broadcast f on every capture, the slot phase is absolute) — so a
// run of equal decisions covers whichever sensors own its slots. The loop
// takes three kinds of step, chosen from the table alone:
//
//   - A sleep run (z zero-probability states) silences the whole fleet:
//     no decision draws, no consumption, and all N batteries fast-forward
//     through their own recharge streams. Sleep runs are
//     ownership-agnostic (nobody decides), so they never split on sensor
//     boundaries.
//   - An always-on run (probability-one states) advances to the slot
//     before the next event: rng.Bernoulli(1) draws nothing and no event
//     falls inside, so each sensor's slots touch only its own recharge
//     stream and battery, and the sensors advance one after another
//     (fleetRun.alwaysOn). The run also stops at the slot-phase wrap, at
//     Slots, and at the battery-sample countdown.
//   - Any other slot — fractional probability, the event slot, or any
//     slot of a traced run — is decided alone, replicating the reference
//     engine's slot: every sensor recharges, the in-charge sensor
//     (t−1) mod N decides.
//
// RNG stream layout (must equal the reference engine's for byte-identity
// under deterministic recharge): root Reseed(seed, 0x5eed), event
// Split(1), shared decision Split(2), then recharge Split(100+s) for
// s = 0..N-1 in sensor order. Per slot the reference consumes one
// recharge draw per sensor — each from its own stream, so batching a
// sleep run's n draws per sensor is exactly n sequential draws — and one
// decision draw iff the in-charge sensor's probability is positive and
// below one; zero- and one-probability slots consume no decision draw in
// either engine. So under deterministic recharge the run is
// byte-identical to the reference; under Bernoulli recharge each
// sensor's sleep run collapses to one exact Binomial(n, q) draw and
// results agree in law (the energy.FastForwarder contract). The
// always-on run and the decided slot draw every recharge amount exactly
// as Next would, so only the sleep runs are equal in law rather than
// bit for bit.
//
// Tracing covers single-sensor plans only (compileKernel declines traced
// fleets): every awake slot decides with positive probability, so each
// gets a record, and each sleep run becomes one compressed span.
func (w *fleetRun) run(cfg *Config, seed uint64, sensors []SensorStats, o *observer) (events, captures int64) {
	plan := w.plan
	n := plan.n
	w.root.Reseed(seed, 0x5eed) // seedflow:ok run-root: must equal the reference engine's root (replication r of a batch at Seed+r) for byte-identity
	w.root.SplitInto(&w.eventSrc, 1)
	w.root.SplitInto(&w.decisionSrc, 2)
	for s := 0; s < n; s++ {
		w.root.SplitInto(&w.rechargeSrcs[s], uint64(100+s))
		w.batteries[s].Reset(cfg.InitialBattery)
		if rst, ok := w.rechs[s].(resettable); ok {
			rst.Reset()
		}
	}

	table := plan.table
	state, modulus := plan.state, plan.modulus
	d := cfg.Dist
	slots := cfg.Slots
	batteries := w.batteries
	cost := cfg.Params.ActivationCost()
	delta1, delta2 := cfg.Params.Delta1, cfg.Params.Delta2
	b0 := &batteries[0]
	countdown := o.stride()

	// partialH mirrors the reference engine's h = -1 under partial
	// information, keeping the two engines' records comparable for
	// tracetool diff.
	partialH := cfg.Info == PartialInfo
	traced := o.tr != nil

	// The paper assumes an event (and capture) at slot 0.
	lastEvent, lastCapture := int64(0), int64(0)
	nextEvent := w.gap(d)

	t := int64(1)
	for t <= slots {
		var st int64
		switch state {
		case StateSinceEvent:
			st = t - lastEvent
		case StateSinceCapture:
			st = t - lastCapture
		default:
			st = (t-1)%modulus + 1
		}

		// A run of equal decisions lasts until Slots and, for the slot
		// phase, until the phase wraps.
		limit := slots - t + 1
		if state == StateSlotPhase {
			limit = min(limit, modulus-st+1)
		}
		r := table.RunFrom(int(st))
		if r > 0 {
			// Sleep run: every sensor owning a slot in the run would read
			// the same zero-probability state, so the whole fleet stays
			// silent for the next run slots (no decision draws, no
			// consumption) and all N batteries fast-forward together.
			run := min(r, limit)
			eventsBefore := events
			var span energy.SpanProbe
			if traced {
				span = b0.BeginSpan()
			}
			if state == StateSinceEvent && nextEvent-t+1 <= run {
				// The event resets h to 1 for the following slot, ending
				// the run at the (slept-through) event slot itself.
				run = nextEvent - t + 1
			}
			w.fastForward(run)
			// Drain the run's events in arrival order to keep the event
			// stream aligned: SinceCapture and SlotPhase states ignore
			// events, so any number may fall inside the run; a
			// SinceEvent run holds at most the one it ends at.
			for end := t + run - 1; nextEvent <= end; {
				events++
				lastEvent = nextEvent
				nextEvent += w.gap(d)
			}
			if traced {
				o.tr.Span(trace.Span{
					Start:     t,
					Len:       run,
					Events:    events - eventsBefore,
					State:     uint8(state),
					Delivered: b0.EndSpan(span),
					Battery:   b0.Level(),
				})
			}
			// KernelSlotsFastForwarded counts slots, not sensor-slots: one
			// run skips run slots for the whole fleet, preserving
			// awake = Slots − FastForwarded.
			o.sleepRun(run, events-eventsBefore)
			t += run
			continue
		}
		if r < 0 && !traced {
			// Always-on run of −r states: it stops before the next event,
			// which is decided alone, and at the next battery sample.
			if run := min(-r, limit, nextEvent-t, countdown); run > 0 {
				w.alwaysOn(t, run, cost, delta1, sensors)
				o.alwaysOn(run)
				countdown -= run
				if countdown == 0 {
					countdown = batterySampleStride
					o.battery(b0.Level())
				}
				t += run
				continue
			}
		}

		// Decided slot: replicate the reference engine's slot exactly —
		// every sensor recharges, only the in-charge sensor decides. amt,
		// sensor 0's delivery, is the traced record's (only single-sensor
		// runs trace).
		amt := w.recharge()
		charge := int((t - 1) % int64(n))
		battery, stats := &batteries[charge], &sensors[charge]
		event := t == nextEvent
		p := table.At(int(st))
		// The decision-time battery level, kept for the slot record.
		preLvl := battery.Level()
		captured, denied, active := false, false, false
		if w.decisionSrc.Bernoulli(p) {
			if !battery.CanConsume(cost) {
				stats.Denied++
				denied = true
			} else {
				active = true
				battery.Consume(delta1)
				stats.Activations++
				if event {
					battery.Consume(delta2)
					stats.Captures++
					captures++
					captured = true
				}
			}
		}
		if event {
			events++
			o.event(t, captured, denied)
		}
		if traced {
			// lastEvent and lastCapture still hold their decision-time
			// values, mirroring the reference engine's records.
			h := t - lastEvent
			if partialH {
				h = -1
			}
			o.slot(t, charge, slotFlags(event, active, denied), h, t-lastCapture, p, preLvl, amt)
		}
		if event {
			lastEvent = t
			nextEvent = t + w.gap(d)
			if captured {
				lastCapture = t
			}
		}
		// End-of-slot battery sample on every stride-th awake slot,
		// matching the per-slot engines' end-of-slot semantics.
		countdown--
		if countdown == 0 {
			countdown = batterySampleStride
			o.battery(b0.Level())
		}
		t++
	}

	for s := 0; s < n; s++ {
		st := &sensors[s]
		st.EnergyConsumed = batteries[s].Consumed()
		st.OverflowLost = batteries[s].OverflowLost()
		st.FinalBattery = batteries[s].Level()
	}
	return events, captures
}
