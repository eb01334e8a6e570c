// Package sim is the slotted discrete-event simulator that measures the
// practical QoM U_K(π) of activation policies: real batteries of capacity
// K, stochastic recharge, and full- or partial-information observation —
// exactly the setting of the paper's Section VI, including the
// multi-sensor coordination schemes of Section V.
//
// The per-slot sequence follows the paper's Figure 1: recharge completes,
// the sensor(s) decide, then the event (if any) occurs.
package sim

import (
	"fmt"
	"math"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/obs"
	"eventcap/internal/rng"
	"eventcap/internal/stats"
	"eventcap/internal/trace"
)

// Info selects the observation model.
type Info int

// Observation models (Section III-B).
const (
	// FullInfo: every sensor learns after the fact whether an event
	// occurred in each slot, active or not.
	FullInfo Info = iota + 1
	// PartialInfo: a sensor learns about an event only by being active
	// in its slot (coordinated modes broadcast captures).
	PartialInfo
)

// Mode selects how multiple sensors share the work.
type Mode int

// Coordination modes (Section V and VI-B).
const (
	// ModeAll runs every sensor in every slot, independently (the
	// uncoordinated baseline of Section V's opening).
	ModeAll Mode = iota + 1
	// ModeRoundRobin puts sensor s in charge of slots t = kN + s; all
	// others stay inactive (M-FI / M-PI and the multi-sensor aggressive
	// baseline).
	ModeRoundRobin
	// ModeBlocks rotates charge in blocks of BlockLen consecutive slots
	// (the multi-sensor periodic baseline: each sensor runs θ1-of-θ2
	// within its own block).
	ModeBlocks
)

// SlotState is what a policy may observe when deciding.
type SlotState struct {
	// Slot is the 1-based absolute slot number.
	Slot int64
	// SinceEvent is the full-information state h_i: slots since the last
	// event occurrence. It is -1 under PartialInfo.
	SinceEvent int
	// SinceCapture is the partial-information state f_i: slots since the
	// last captured event (shared via broadcast in coordinated modes,
	// per-sensor otherwise).
	SinceCapture int
	// Battery is the deciding sensor's energy level after recharge.
	Battery float64
}

// Outcome reports a slot's result back to the policy that decided it.
type Outcome struct {
	// Active reports whether the sensor actually activated.
	Active bool
	// EventKnown reports whether the event indicator below is
	// trustworthy (always under FullInfo, only when active otherwise).
	EventKnown bool
	// Event reports the event occurrence (meaningful iff EventKnown).
	Event bool
	// Captured reports Active && Event.
	Captured bool
}

// Policy is a runtime activation policy. Implementations may be stateful
// (EBCW's last-observation memory); each sensor gets its own instance.
type Policy interface {
	// Name identifies the policy in results.
	Name() string
	// ActivationProb returns the probability of choosing the active
	// action given the observable state. The engine enforces the energy
	// gate (B >= δ1+δ2) on top of it.
	ActivationProb(s SlotState) float64
	// Observe reports the slot's outcome (only for slots this sensor was
	// in charge of).
	Observe(o Outcome)
	// Reset restores initial state for a fresh run.
	Reset()
}

// SensorStats accumulates per-sensor accounting.
type SensorStats struct {
	Activations    int64
	Captures       int64
	Denied         int64 // activation decisions blocked by the energy gate
	EnergyConsumed float64
	OverflowLost   float64
	FinalBattery   float64
}

// Result is the outcome of a simulation run.
type Result struct {
	Slots    int64
	Events   int64
	Captures int64 // slots where at least one sensor captured
	// QoM is the capture probability U_K(π) of Eq. (1).
	QoM     float64
	Sensors []SensorStats
	// Engine records the engine that actually executed the run (the
	// reference engine or the compiled kernel) — under EngineAuto the
	// caller cannot know otherwise.
	Engine Engine
	// Metrics holds the run's observability counters; every run fills
	// it.
	Metrics *Metrics
	// Stats holds the run's streaming-statistics report (QoM point
	// estimate and CI, DESIGN.md §16); every run fills it.
	Stats *stats.Report
}

// LoadImbalance returns (max - min)/mean of per-sensor activation counts:
// 0 is perfect balance (Section V-A's load-balancing concern). It returns
// 0 when no sensor activated.
func (r *Result) LoadImbalance() float64 {
	if len(r.Sensors) == 0 {
		return 0
	}
	minA, maxA, total := int64(math.MaxInt64), int64(0), int64(0)
	for _, s := range r.Sensors {
		if s.Activations < minA {
			minA = s.Activations
		}
		if s.Activations > maxA {
			maxA = s.Activations
		}
		total += s.Activations
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(r.Sensors))
	return float64(maxA-minA) / mean
}

// Config describes a simulation run. NewRecharge and NewPolicy are
// factories so each sensor owns independent (possibly stateful)
// instances. With Batch > 1 they may be called from several chunks at
// once, so they must be safe for concurrent calls and return a fresh
// instance whenever it carries state.
type Config struct {
	Dist   dist.Interarrival
	Params core.Params

	// NewRecharge builds the recharge process for one sensor.
	NewRecharge func() energy.Recharge
	// NewPolicy builds the policy for sensor index s (0-based).
	NewPolicy func(s int) Policy

	// N is the number of sensors (default 1).
	N int
	// Mode is the coordination mode (default ModeAll).
	Mode Mode
	// BlockLen is the block size for ModeBlocks.
	BlockLen int

	// BatteryCap is K. Every sensor starts half full, at K/2 (the
	// paper's setting).
	BatteryCap float64

	// Slots is the duration T.
	Slots int64
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
	// Info is the observation model (default FullInfo).
	Info Info

	// Workers bounds the worker pool of a batch's replication chunks.
	// 0 means one worker per CPU; 1 forces sequential execution.
	// Results are identical for every value — the per-replication
	// decomposition, not the worker count, fixes the random streams.
	Workers int

	// FailAt, if non-nil, maps a 0-based sensor index in [0, N) to the
	// slot at which that sensor dies permanently (stops deciding,
	// recharging and observing) — fault injection for resilience
	// experiments. Failed sensors keep their slot assignments in
	// coordinated modes, which is exactly the fragility being measured.
	FailAt map[int]int64

	// Tracer, when non-nil, receives a slot-level execution trace:
	// per-slot decision records, and on the compiled single-sensor
	// kernel one compressed span per fast-forwarded sleep run. Tracing
	// never consumes a random draw, so results are byte-identical with
	// it attached or not (asserted by TestTracingDoesNotChangeResults).
	// Traced fleets (N > 1) run the reference engine. A batch
	// (Batch > 1) is refused: trace the single run at Seed, which is its
	// replication 0.
	Tracer *trace.Writer

	// Engine selects the simulation engine, of a single run and of every
	// replication of a batch alike. The default, EngineAuto, runs the
	// compiled slot-skipping kernel whenever the configuration is
	// eligible (a single sensor, a round-robin or a block fleet,
	// compilable stateless policy, fast-forwardable recharge, no fault
	// injection, no tracer on a fleet) and the reference engine
	// otherwise. See kernel.go for the equivalence contract.
	Engine Engine

	// Batch, when > 1, is a replication count: the call simulates that
	// many statistically independent replications of this configuration
	// on the engine Engine picks, in parallel chunks (see batch.go).
	// Replication r reproduces the run this Config would produce at
	// Seed + r, and the Result aggregates all replications (summed
	// Events/Captures, pooled QoM, one SensorStats block per
	// replication, Metrics occupancy from replication 0, and a
	// per-replication stats report). Batch <= 1 is a single run.
	Batch int

	// Span, when non-nil, is the parent span this run records its phase
	// timings under: a "compile" child around the kernel probe, then one
	// "exec.kernel" or "exec.reference" child around a single run's
	// execution, or one "exec.batch" child (with per-chunk forks and an
	// aggregation child) around a batch's. Spans wrap phases,
	// never the slot loop, and are RNG-neutral like Tracer — results
	// are byte-identical with or without one attached (asserted by
	// TestSpansDoNotChangeResults).
	Span *obs.Span
}

func (c *Config) validate() error {
	if c.Dist == nil {
		return fmt.Errorf("sim: Config.Dist is required")
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.NewRecharge == nil {
		return fmt.Errorf("sim: Config.NewRecharge is required")
	}
	if c.NewPolicy == nil {
		return fmt.Errorf("sim: Config.NewPolicy is required")
	}
	if c.N == 0 {
		c.N = 1
	}
	if c.N < 1 {
		return fmt.Errorf("sim: N must be >= 1, got %d", c.N)
	}
	// Report the smallest out-of-range key so the error is deterministic.
	bad, found := 0, false
	// nondeterm:ok order-independent check: the minimum bad key is order-free
	for s := range c.FailAt {
		if (s < 0 || s >= c.N) && (!found || s < bad) {
			bad, found = s, true
		}
	}
	if found {
		return fmt.Errorf("sim: FailAt sensor %d outside [0, %d)", bad, c.N)
	}
	if c.Mode == 0 {
		c.Mode = ModeAll
	}
	if c.Mode == ModeBlocks && c.BlockLen < 1 {
		return fmt.Errorf("sim: ModeBlocks requires BlockLen >= 1")
	}
	if !(c.BatteryCap > 0) {
		return fmt.Errorf("sim: BatteryCap must be positive, got %g", c.BatteryCap)
	}
	if c.Slots < 1 {
		return fmt.Errorf("sim: Slots must be >= 1, got %d", c.Slots)
	}
	if c.Info == 0 {
		c.Info = FullInfo
	}
	if c.Batch < 0 {
		return fmt.Errorf("sim: Batch must be >= 0, got %d", c.Batch)
	}
	if c.Tracer != nil && c.Batch > 1 {
		return fmt.Errorf("sim: a Tracer with Batch > 1 is refused: trace the single run at Seed (replication 0)")
	}
	return nil
}

// inCharge returns the 0-based sensor responsible for slot t, or -1 when
// all sensors decide (ModeAll).
func (c *Config) inCharge(t int64) int {
	switch c.Mode {
	case ModeRoundRobin:
		return int((t - 1) % int64(c.N))
	case ModeBlocks:
		block := (t - 1) / int64(c.BlockLen)
		return int(block % int64(c.N))
	default:
		return -1
	}
}

// Run executes the simulation: one run, or Config.Batch replications
// of it, on the engine compile picks.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	plan, quant, err := compile(&cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Batch > 1 {
		return runBatch(cfg, plan, quant)
	}
	span, engine, code := "exec.reference", EngineReference, trace.EngineReference
	if plan != nil {
		span, engine, code = "exec.kernel", EngineKernel, trace.EngineKernel
	}
	ex := cfg.Span.Child(span)
	defer ex.End()
	ex.Count("slots", cfg.Slots)
	ex.Count("sensors", int64(cfg.N))
	res := &Result{Slots: cfg.Slots, Sensors: make([]SensorStats, cfg.N), Engine: engine}
	o := newObserver(&cfg, code)
	if plan != nil {
		w, err := newFleetRun(&cfg, plan, plan.recharges, nil)
		if err != nil {
			return nil, err
		}
		res.Events, res.Captures = w.run(&cfg, cfg.Seed, res.Sensors, &o)
	} else if res.Events, res.Captures, err = runReference(&cfg, cfg.Seed, res.Sensors, &o); err != nil {
		return nil, err
	}
	o.finish(res)
	return res, nil
}

// compile picks cfg's engine (cfg already validated) under a "compile"
// span: the kernel plan, or nil for the reference engine. A batch's
// plan comes with the quantile table its replications share. Under
// EngineAuto a declined plan counts its structural reason on the span
// and in the sim.engine.fallback.* counters; under EngineKernel it is
// an error.
func compile(cfg *Config) (*kernelPlan, *dist.QuantileTable, error) {
	if cfg.Engine == EngineReference {
		return nil, nil, nil
	}
	csp := cfg.Span.Child("compile")
	defer csp.End()
	plan, fb := compileKernel(cfg)
	if plan == nil {
		if cfg.Engine == EngineKernel {
			return nil, nil, fmt.Errorf("sim: kernel engine unavailable: %s", fb.reason)
		}
		csp.Count("fallback."+fb.slug, 1)
		fb.record()
		return nil, nil, nil
	}
	var quant *dist.QuantileTable
	if cfg.Batch > 1 {
		tsp := csp.Child("batch.table")
		if s := dist.AsInverseSampler(cfg.Dist); s != nil {
			quant = dist.NewQuantileTable(s)
		}
		tsp.End()
	}
	return plan, quant, nil
}

// runReference is the interpreted per-slot engine: the semantic ground
// truth every fast path is checked against, general over sensor counts,
// coordination modes, observation models, stateful policies and fault
// injection. It also runs every fleet the kernel declines, the
// uncoordinated ones (ModeAll) included: all sensors decide in sensor
// order from the one shared decision stream. Like fleetRun.run it
// simulates one run at seed into sensors (one block per sensor),
// observing into o, and returns the run's event and capture counts; it
// builds fresh batteries, recharge processes and policies for every
// run.
func runReference(cfg *Config, seed uint64, sensors []SensorStats, o *observer) (events, captures int64, err error) {
	root := rng.New(seed, 0x5eed) // seedflow:ok run-root: the reference engine's root stream, derived from Config.Seed (Seed + r for a batch's replication r)
	eventSrc := root.Split(1)
	decisionSrc := root.Split(2)

	batteries := make([]*energy.Battery, cfg.N)
	recharges := make([]energy.Recharge, cfg.N)
	rechargeSrcs := make([]*rng.Source, cfg.N)
	policies := make([]Policy, cfg.N)
	for s := 0; s < cfg.N; s++ {
		b, err := energy.NewBattery(cfg.BatteryCap, cfg.BatteryCap/2)
		if err != nil {
			return 0, 0, err
		}
		batteries[s] = b
		recharges[s] = cfg.NewRecharge()
		rechargeSrcs[s] = root.Split(uint64(100 + s))
		policies[s] = cfg.NewPolicy(s)
		policies[s].Reset()
	}

	cost := cfg.Params.ActivationCost()
	// rechargeDraw keeps each sensor's last delivered energy for the
	// trace records.
	var rechargeDraw []float64
	if o.w != nil {
		rechargeDraw = make([]float64, cfg.N)
		o.start(cfg, seed, cfg.N, policies[0].Name(), recharges[0].Name())
	}

	// The paper assumes an event (and, for PI, a capture) at slot 0.
	lastEvent := int64(0)
	sharedLastCapture := int64(0)
	ownLastCapture := make([]int64, cfg.N)
	nextEvent := int64(cfg.Dist.Sample(eventSrc))

	// Lower the fault-injection map to a per-sensor slot array so the hot
	// loop never ranges over a map; hasFail skips even the array scan for
	// the common fault-free run.
	failed := make([]bool, cfg.N)
	failSlot := make([]int64, cfg.N)
	for s := range failSlot {
		failSlot[s] = math.MaxInt64
	}
	// nondeterm:ok order-independent lowering: each key writes its own slot
	for s, slot := range cfg.FailAt {
		failSlot[s] = slot
	}
	hasFail := len(cfg.FailAt) > 0

	actions := make([]bool, cfg.N)

	// decide is hoisted out of the slot loop (a closure literal inside it
	// would allocate every iteration); the per-slot variables it reads are
	// declared alongside it and mutated by the loop.
	var (
		t           int64
		event       bool
		captured    bool
		eventDenied bool // an activation attempt hit the energy gate in an event slot
	)
	decide := func(s int) {
		if failed[s] {
			return
		}
		st := SlotState{
			Slot:         t,
			SinceEvent:   int(t - lastEvent),
			SinceCapture: int(t - sharedLastCapture),
			Battery:      batteries[s].Level(),
		}
		if cfg.Info == PartialInfo {
			st.SinceEvent = -1
		}
		if cfg.Mode == ModeAll && cfg.Info == PartialInfo {
			// Uncoordinated sensors broadcast nothing: each learns only
			// of its own captures, so each keeps its own f clock.
			st.SinceCapture = int(t - ownLastCapture[s])
		}
		p := policies[s].ActivationProb(st)
		active, denied := false, false
		switch {
		case p <= 0 || !decisionSrc.Bernoulli(p):
			// Asleep: no draw consumed when p <= 0, one otherwise.
		case !batteries[s].CanConsume(cost):
			sensors[s].Denied++
			denied = true
			if event {
				eventDenied = true
			}
		default:
			stats := &sensors[s]
			active = true
			actions[s] = true
			batteries[s].Consume(cfg.Params.Delta1)
			stats.Activations++
			if event {
				batteries[s].Consume(cfg.Params.Delta2)
				stats.Captures++
				captured = true
			}
		}
		policies[s].Observe(outcomeFor(cfg.Info, active, event, active && event))
		if o.w != nil {
			o.slot(t, s, slotFlags(event, active, denied), int64(st.SinceEvent), int64(st.SinceCapture),
				p, st.Battery, rechargeDraw[s])
		}
	}

	// The slot loop is blocked into batterySampleStride-long chunks so
	// the battery observation runs between chunks rather than on a
	// data-dependent branch inside the loop: a period-stride pattern
	// inside a body with dozens of branches is beyond any predictor's
	// history, and the resulting mispredictions cost far more than the
	// observation itself. A batch replication r ≥ 1 samples nothing and
	// runs the whole horizon as one chunk.
	chunkLen := cfg.Slots
	if o.sampling {
		chunkLen = batterySampleStride
	}
	for t = 1; t <= cfg.Slots; {
		chunkEnd := t + chunkLen - 1
		if chunkEnd > cfg.Slots {
			chunkEnd = cfg.Slots
		}
		for ; t <= chunkEnd; t++ {
			if hasFail {
				for s := 0; s < cfg.N; s++ {
					if !failed[s] && t >= failSlot[s] {
						failed[s] = true
					}
				}
			}
			// 1. Recharge completes at the beginning of the slot.
			for s := 0; s < cfg.N; s++ {
				if failed[s] {
					continue
				}
				amt := recharges[s].Next(rechargeSrcs[s])
				batteries[s].Recharge(amt)
				if o.w != nil {
					rechargeDraw[s] = amt
				}
			}

			event = t == nextEvent
			charge := cfg.inCharge(t)
			captured = false
			eventDenied = false
			for s := 0; s < cfg.N; s++ {
				actions[s] = false
			}

			if charge >= 0 {
				decide(charge)
			} else {
				for s := 0; s < cfg.N; s++ {
					decide(s)
				}
			}

			if o.w != nil {
				// An event slot in which no sensor decided (all failed,
				// or the in-charge sensor failed) still needs a record.
				if event && o.recs == 0 {
					o.marker(t, trace.FlagEvent, t-lastEvent, t-sharedLastCapture)
				}
				o.recs = 0
			}
			if event {
				events++
				lastEvent = t
				nextEvent = t + int64(cfg.Dist.Sample(eventSrc))
				o.event(captured, eventDenied)
			}
			if captured {
				captures++
				sharedLastCapture = t
				for s := 0; s < cfg.N; s++ {
					if actions[s] {
						ownLastCapture[s] = t
					}
				}
			}
		}
		// Sample sensor 0's end-of-slot battery level once per full
		// chunk (chunkEnd is stride-aligned except possibly the last,
		// so ObservedSlots == Slots/batterySampleStride exactly).
		if o.sampling && chunkEnd&(batterySampleStride-1) == 0 {
			o.battery(batteries[0].Level())
		}
	}

	for s := 0; s < cfg.N; s++ {
		st := &sensors[s]
		st.EnergyConsumed = batteries[s].Consumed()
		st.OverflowLost = batteries[s].OverflowLost()
		st.FinalBattery = batteries[s].Level()
	}
	if o.w != nil {
		o.w.RunEnd(trace.RunEnd{Events: events, Captures: captures})
	}
	return events, captures, nil
}

func outcomeFor(info Info, active, event, captured bool) Outcome {
	known := active || info == FullInfo
	o := Outcome{Active: active, EventKnown: known, Captured: captured}
	if known {
		o.Event = event
	}
	return o
}
