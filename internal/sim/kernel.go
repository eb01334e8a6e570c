package sim

import (
	"fmt"
	"math"

	"eventcap/internal/core"
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

// runFleetKernel executes the compiled fast path for every kernel plan. A
// single sensor is simply the N = 1 round-robin fleet (PAPER.md §1:
// sensor s owns slots t = kN + s), so one loop serves both.
//
// The round-robin fleet shares one compiled activation table — the
// in-charge sensor's decision state is global (h resets on every event,
// the broadcast f on every capture, the slot phase is absolute) — so a
// run of z zero-probability states silences whichever sensors own those
// slots, and the only per-sensor work across it is advancing N batteries
// through their own recharge streams. Sleep runs are ownership-agnostic
// (nobody decides), so they never split on sensor boundaries; ownership
// of awake slot t is (t-1) mod N.
//
// RNG stream layout (must equal the reference engine's for byte-identity
// under deterministic recharge): root rng.New(Seed, 0x5eed), event
// Split(1), shared decision Split(2), then recharge Split(100+s) for
// s = 0..N-1 in sensor order. Per slot the reference consumes one
// recharge draw per sensor — each from its own stream, so batching a
// sleep run's n draws per sensor is exactly n sequential draws — and one
// decision draw iff the in-charge sensor's probability is positive, which
// is precisely the awake-slot condition here (zero-probability slots
// consume no decision draws in either engine). So under deterministic
// recharge the Result is byte-identical to the reference; under Bernoulli
// recharge each sensor's sleep run collapses to one exact Binomial(n, q)
// draw and results agree in law (the energy.FastForwarder contract).
//
// Tracing covers single-sensor plans only (compileKernel declines traced
// fleets): every awake slot decides with positive probability, so each
// gets a record, and each sleep run becomes one compressed span.
func runFleetKernel(cfg Config, plan *kernelPlan) (*Result, error) {
	n := plan.n
	ex := cfg.Span.Child("exec.kernel")
	defer ex.End()
	ex.Count("slots", cfg.Slots)
	ex.Count("sensors", int64(n))
	defer cfg.Progress.FinishWork(cfg.Slots * int64(n))
	root := rng.New(cfg.Seed, 0x5eed) // seedflow:ok run-root: must equal the reference engine's root for byte-identity
	eventSrc := root.Split(1)
	decisionSrc := root.Split(2)
	// Dense battery block: one cache-friendly value slice instead of N
	// heap pointers; FastForward and the awake slot take &batteries[s].
	batteries := make([]energy.Battery, n)
	for s := 0; s < n; s++ {
		b, err := energy.NewBattery(cfg.BatteryCap, cfg.InitialBattery)
		if err != nil {
			return nil, err
		}
		batteries[s] = *b
	}
	rechargeSrcs := make([]*rng.Source, n)
	for s := 0; s < n; s++ {
		rechargeSrcs[s] = root.Split(uint64(100 + s))
	}
	for _, p := range plan.policies {
		p.Reset()
	}

	table := plan.table
	recharges := plan.recharges
	cost := cfg.Params.ActivationCost()
	delta1, delta2 := cfg.Params.Delta1, cfg.Params.Delta2

	// Devirtualize the per-awake-slot recharge draws when the whole fleet
	// runs the paper's Bernoulli process (one factory, so in practice all
	// or none); the draws consume the streams exactly as Bernoulli.Next.
	bernQ := make([]float64, n)
	bernC := make([]float64, n)
	isBern := true
	for s, r := range recharges {
		b, ok := r.(*energy.Bernoulli)
		if !ok {
			isBern = false
			break
		}
		bernQ[s], bernC[s] = b.Q(), b.C()
	}

	res := &Result{Slots: cfg.Slots, Sensors: make([]SensorStats, n), Engine: EngineKernel}
	o := newObserver(&cfg, trace.EngineKernel)
	countdown := o.stride()

	// partialH mirrors the reference engine's h = -1 under partial
	// information, keeping the two engines' records comparable for
	// tracetool diff.
	partialH := cfg.Info == PartialInfo
	if o.tr != nil {
		o.start(&cfg, n, plan.policies[0].Name(), recharges[0].Name())
	}

	// The paper assumes an event (and capture) at slot 0.
	lastEvent, lastCapture := int64(0), int64(0)
	nextEvent := int64(cfg.Dist.Sample(eventSrc))
	nn := int64(n)

	t := int64(1)
	for t <= cfg.Slots {
		var st int64
		switch plan.state {
		case StateSinceEvent:
			st = t - lastEvent
		case StateSinceCapture:
			st = t - lastCapture
		default:
			st = (t-1)%plan.modulus + 1
		}

		if z := table.ZeroRunFrom(int(st)); z > 0 {
			// Sleep run: every sensor owning a slot in the run would read
			// the same zero-probability state, so the whole fleet stays
			// silent for the next run slots (no decision draws, no
			// consumption) and all N batteries fast-forward together.
			run := z
			if plan.state == StateSlotPhase {
				if wrap := plan.modulus - st + 1; run > wrap {
					run = wrap
				}
			}
			if left := cfg.Slots - t + 1; run > left {
				run = left
			}
			eventsBefore := res.Events
			var span energy.SpanProbe
			if o.tr != nil {
				span = batteries[0].BeginSpan()
			}
			if plan.state == StateSinceEvent && nextEvent-t+1 <= run {
				// The event resets h to 1 for the following slot, ending
				// the run at the (slept-through) event slot itself.
				run = nextEvent - t + 1
				for s := 0; s < n; s++ {
					recharges[s].FastForward(&batteries[s], run, rechargeSrcs[s])
				}
				res.Events++
				lastEvent = nextEvent
				nextEvent += int64(cfg.Dist.Sample(eventSrc))
			} else {
				for s := 0; s < n; s++ {
					recharges[s].FastForward(&batteries[s], run, rechargeSrcs[s])
				}
				// SinceCapture and SlotPhase states ignore events, so any
				// number of events may fall inside the run; drain them in
				// arrival order to keep the event stream aligned.
				end := t + run - 1
				for nextEvent <= end {
					res.Events++
					lastEvent = nextEvent
					nextEvent += int64(cfg.Dist.Sample(eventSrc))
				}
			}
			if o.tr != nil {
				o.tr.Span(trace.Span{
					Start:     t,
					Len:       run,
					Events:    res.Events - eventsBefore,
					State:     uint8(plan.state),
					Delivered: batteries[0].EndSpan(span),
					Battery:   batteries[0].Level(),
				})
			}
			// KernelSlotsFastForwarded counts slots, not sensor-slots: one
			// run skips run slots for the whole fleet, preserving
			// awake = Slots − FastForwarded.
			o.sleepRun(run, res.Events-eventsBefore)
			t += run
			continue
		}

		// Awake slot: replicate the reference engine's slot exactly —
		// every sensor recharges, only the in-charge sensor decides. amt
		// ends as the last sensor's delivery: the traced sensor's when
		// n == 1.
		var amt float64
		for s := 0; s < n; s++ {
			if isBern {
				amt = 0
				if rechargeSrcs[s].Bernoulli(bernQ[s]) {
					amt = bernC[s]
				}
			} else {
				amt = recharges[s].Next(rechargeSrcs[s])
			}
			batteries[s].Recharge(amt)
		}
		event := t == nextEvent
		charge := 0
		if n > 1 {
			charge = int((t - 1) % nn)
		}
		battery := &batteries[charge]
		p := table.At(int(st))
		// Decision-time states and battery, captured before the slot
		// mutates them, mirroring the reference engine's records.
		var h, f int64
		var preLvl float64
		if o.tr != nil {
			h = t - lastEvent
			if partialH {
				h = -1
			}
			f = t - lastCapture
			preLvl = battery.Level()
		}
		captured, denied, active := false, false, false
		if decisionSrc.Bernoulli(p) {
			if !battery.CanConsume(cost) {
				res.Sensors[charge].Denied++
				denied = true
			} else {
				active = true
				battery.Consume(delta1)
				res.Sensors[charge].Activations++
				if event {
					battery.Consume(delta2)
					res.Sensors[charge].Captures++
					res.Captures++
					lastCapture = t
					captured = true
				}
			}
		}
		if event {
			res.Events++
			lastEvent = t
			nextEvent = t + int64(cfg.Dist.Sample(eventSrc))
			o.event(t, captured, denied)
		}
		if o.tr != nil {
			o.slot(t, charge, slotFlags(event, active, denied), h, f, p, preLvl, amt)
		}
		// End-of-slot battery sample on every stride-th awake slot,
		// matching the per-slot engines' end-of-slot semantics.
		countdown--
		if countdown == 0 {
			countdown = batterySampleStride
			o.battery(batteries[0].Level())
		}
		t++
	}

	for s := 0; s < n; s++ {
		st := &res.Sensors[s]
		st.EnergyConsumed = batteries[s].Consumed()
		st.OverflowLost = batteries[s].OverflowLost()
		st.FinalBattery = batteries[s].Level()
	}
	o.finish(res)
	return res, nil
}
