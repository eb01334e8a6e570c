package sim

import (
	"math"

	"eventcap/internal/trace"
)

// observer is a run's single observation point. Every engine builds one
// per run (plus one part per concurrently running unit of a fanned-out
// run) and calls it at six points: an event, a fast-forwarded sleep
// run, an always-on run, a decided slot, a battery-sampling stride, and
// the end of the run. The miss decomposition, the battery binning, the
// slot-record fast path and the run epilogue therefore each exist once,
// whatever the engine. Every run fills its Metrics and its stats
// report; the trace writer is the one optional sink. It is a plain
// struct of concrete sinks: no interface dispatch, no per-event
// allocation, and it never draws from a random stream.
//
// Sampling the battery (stride) decides where some stretches end: the
// compiled loop cuts always-on runs at the sample countdown, and the
// reference engine splits its slot loop into stride-long chunks. A
// single run always samples; only a batch's replications r ≥ 1 do not
// (only0), so theirs are the only always-on runs and loop chunks that
// end at different points from the single run at the same seed. An end
// point moves no draw (see fleetRun.alwaysOn), so replication r still
// reproduces the single run at Seed + r.
type observer struct {
	m *Metrics
	// sp is the stats probe, nil on a batch part: parts record
	// per-replication counts that the run observer feeds after the join.
	sp *statsProbe

	// sampling reports whether this observer samples sensor 0's
	// end-of-slot battery level into Metrics' occupancy. invCap and
	// costGate are its per-run constants, costGate mirroring
	// energy.Battery.CanConsume.
	sampling         bool
	invCap, costGate float64

	// w is the slot-trace writer (Config.Tracer), nil on an untraced
	// run; engine tags its records.
	w      *trace.Writer
	engine uint8
	// recs counts the trace records of the current slot, so the
	// reference engine knows when an event slot needs a marker.
	recs int
}

// newObserver builds the run observer for cfg; engine tags its trace
// records.
func newObserver(cfg *Config, engine uint8) observer {
	o := newPart(cfg, engine)
	o.sp = &statsProbe{}
	return o
}

// newPart builds the observer of one unit of a fanned-out run (a batch
// chunk): a fresh Metrics partial the caller merges back, and no stats
// probe — per-event or per-replication observations stay on the run
// observer. A part samples the battery until the caller moves it past
// replication 0 (only0). A batch is never traced (Config.validate
// refuses it), so a part's writer is nil.
func newPart(cfg *Config, engine uint8) observer {
	return observer{
		m:        &Metrics{},
		sampling: true,
		invCap:   1 / cfg.BatteryCap,
		costGate: cfg.Params.ActivationCost() - 1e-12,
		w:        cfg.Tracer,
		engine:   engine,
	}
}

// only0 ends a batch part's battery sampling once the part moves past
// replication 0: batches sample battery occupancy from replication 0
// only.
func (o *observer) only0() {
	o.sampling = false
}

// start opens a traced run at seed. Engines call it only when
// o.w != nil, and close the run with Writer.RunEnd.
func (o *observer) start(cfg *Config, seed uint64, sensors int, policy, recharge string) {
	o.w.RunStart(trace.RunInfo{
		Engine:     o.engine,
		Sensors:    sensors,
		Seed:       seed,
		Slots:      cfg.Slots,
		BatteryCap: cfg.BatteryCap,
		Cost:       cfg.Params.ActivationCost(),
		Policy:     policy,
		Dist:       cfg.Dist.Name(),
		Recharge:   recharge,
	})
}

// event classifies one event of the run, in slot order. An uncaptured
// event is an energy miss when some deciding sensor chose to activate
// and hit the energy gate (denied), and a sleep miss otherwise.
func (o *observer) event(captured, denied bool) {
	if !captured {
		if denied {
			o.m.MissNoEnergy++
		} else {
			o.m.MissAsleep++
		}
	}
	if o.sp != nil {
		o.sp.observeEvent(captured)
	}
}

// sleepRun records a fast-forwarded sleep run of n slots. Each of the
// misses events inside it is a sleep miss by construction; engines that
// resolve events elsewhere pass 0.
func (o *observer) sleepRun(n, misses int64) {
	o.m.KernelRuns++
	o.m.KernelSlotsFastForwarded += n
	o.m.MissAsleep += misses
	if o.sp != nil {
		o.sp.observeMisses(misses)
	}
}

// alwaysOn records an always-on run of n slots: probability-one states
// the kernel advanced without deciding them one at a time.
func (o *observer) alwaysOn(n int64) {
	o.m.KernelSlotsAlwaysOn += n
}

// slot traces one decided slot; engines call it only when o.w != nil.
func (o *observer) slot(t int64, s int, flags uint8, h, f int64, p, lvl, amt float64) {
	o.w.Rec(trace.Rec{
		Slot:     t,
		Sensor:   int32(s),
		Engine:   o.engine,
		Flags:    flags,
		H:        int32(h),
		F:        int32(f),
		Prob:     p,
		Battery:  lvl,
		Recharge: amt,
	})
	o.recs++
}

// marker traces an aggregate (Sensor = -1) record for an event slot.
// Replay counts events from the trace, so an event slot needs a record
// even when no sensor decided in it.
func (o *observer) marker(t int64, flags uint8, h, f int64) {
	o.w.Rec(trace.Rec{Slot: t, Sensor: -1, Engine: o.engine, Flags: flags, H: int32(h), F: int32(f)})
}

// slotFlags encodes a decided slot's outcome as trace record flags.
func slotFlags(event, active, denied bool) uint8 {
	var flags uint8
	if event {
		flags |= trace.FlagEvent
	}
	if active {
		flags |= trace.FlagActive
		if event {
			flags |= trace.FlagCaptured
		}
	}
	if denied {
		flags |= trace.FlagDenied
	}
	return flags
}

// stride returns the starting value of an awake-slot countdown to the
// next battery sample: the sampling stride, or never when this observer
// does not sample (a batch replication r ≥ 1). Awake-slot engines keep
// the countdown in a local, so an unsampled loop pays one
// decrement-and-test per awake slot.
func (o *observer) stride() int64 {
	if o.sampling {
		return batterySampleStride
	}
	return math.MaxInt64
}

// battery records one sample of sensor 0's end-of-slot battery level.
func (o *observer) battery(lvl float64) {
	frac := lvl * o.invCap
	o.m.ObservedSlots++
	o.m.BatteryFracSum += frac
	bin := int(frac * batteryBins)
	if bin >= batteryBins {
		bin = batteryBins - 1
	}
	o.m.BatteryHist[bin]++
	if lvl < o.costGate {
		o.m.EnergyOutageSlots++
	}
}

// finish is every Run's epilogue: the pooled QoM, the engine count,
// the Metrics derived fields and process-wide publication, and the
// stats report.
func (o *observer) finish(res *Result) {
	if res.Events > 0 {
		res.QoM = float64(res.Captures) / float64(res.Events)
	}
	recordEngine(res.Engine)
	// An activation on an event slot always captures, so the wasted
	// (no-event) activations are exactly activations − captures, summed
	// over every sensor block of the result; deriving them here keeps
	// the branch out of every hot activation path.
	for i := range res.Sensors {
		o.m.WastedActivations += res.Sensors[i].Activations - res.Sensors[i].Captures
	}
	res.Metrics = o.m
	o.m.publish(res)
	r := o.sp.report()
	res.Stats = &r
}
