package sim

import (
	"math"

	"eventcap/internal/trace"
)

// observer is a run's single observation point. Every engine builds one
// per run (plus one part per concurrently running unit of a fanned-out
// run) and calls it at five points: an event, a fast-forwarded sleep
// run, a decided slot, a battery-sampling stride, and the end of the
// run. The miss decomposition, the battery binning, the slot-record fast
// path and the run epilogue therefore each exist once, whatever the
// engine. It is a plain struct of concrete sinks, each nil when off: no
// interface dispatch, no per-event allocation, and — like every sink it
// feeds — RNG-neutral: it never draws from a random stream or steers an
// engine's control flow, so outputs are byte-identical with any
// combination of sinks attached.
type observer struct {
	m  *Metrics
	sp *StatsProbe

	// sampling reports whether this observer samples sensor 0's
	// end-of-slot battery level; Metrics occupancy and the probe's
	// battery stream share the one sampler. invCap and costGate are its
	// per-run constants, costGate mirroring energy.Battery.CanConsume.
	sampling         bool
	invCap, costGate float64

	// The tracer plus its cached sinks: decided slots go straight to the
	// writer and recorder (one record copy instead of Tracer.Slot's two,
	// which matters against the flight recorder's per-record budget).
	tr     *trace.Tracer
	w      *trace.Writer
	fr     *trace.FlightRecorder
	engine uint8
	// recs counts the full-trace records of the current slot, so the
	// reference engine knows when an event slot needs a marker.
	recs int
}

// newObserver builds the run observer for cfg; engine tags its trace
// records.
func newObserver(cfg *Config, engine uint8) observer {
	o := newPart(cfg, engine)
	o.sp = newStatsProbe(cfg)
	o.sampling = o.m != nil || o.sp != nil
	return o
}

// newPart builds the observer of one unit of a fanned-out run (an
// independent sensor's job, a batch chunk): the tracer, a fresh Metrics
// partial the caller merges back, and neither the stats probe nor
// battery sampling — the caller hands those to the one unit that
// samples, and per-event or per-replication observations stay on the
// run observer.
func newPart(cfg *Config, engine uint8) observer {
	o := observer{
		invCap:   1 / cfg.BatteryCap,
		costGate: cfg.Params.ActivationCost() - 1e-12,
		tr:       cfg.Tracer,
		engine:   engine,
	}
	if cfg.Metrics {
		o.m = &Metrics{}
	}
	if o.tr != nil {
		o.w, o.fr = o.tr.Writer(), o.tr.Recorder()
	}
	return o
}

// start opens a traced run. Engines call it only when o.tr != nil.
func (o *observer) start(cfg *Config, sensors int, policy, recharge string) {
	o.tr.RunStart(trace.RunInfo{
		Engine:     o.engine,
		Sensors:    sensors,
		Seed:       cfg.Seed,
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
func (o *observer) event(t int64, captured, denied bool) {
	if o.m != nil && !captured {
		if denied {
			o.m.MissNoEnergy++
		} else {
			o.m.MissAsleep++
		}
	}
	if o.sp != nil {
		o.sp.ObserveEvent(captured)
	}
	if o.tr != nil && !captured && denied {
		o.tr.OutageMiss(t)
	}
}

// sleepRun records a fast-forwarded sleep run of n slots. Each of the
// misses events inside it is a sleep miss by construction; engines that
// resolve events elsewhere pass 0.
func (o *observer) sleepRun(n, misses int64) {
	if o.m != nil {
		o.m.KernelRuns++
		o.m.KernelSlotsFastForwarded += n
		o.m.MissAsleep += misses
	}
	if o.sp != nil {
		o.sp.ObserveMisses(misses)
	}
}

// slot traces one decided slot; engines call it only when o.tr != nil.
// A full trace records every decided slot. A flight recorder alone
// records only the decision-relevant ones (positive activation
// probability or an event), which keeps an armed recorder's per-slot
// cost near zero on sparse policies, and its fields go straight into the
// ring slot with no intermediate Rec.
func (o *observer) slot(t int64, s int, flags uint8, h, f int64, p, lvl, amt float64) {
	if o.w != nil {
		rec := trace.Rec{
			Slot:     t,
			Sensor:   int32(s),
			Engine:   o.engine,
			Flags:    flags,
			H:        int32(h),
			F:        int32(f),
			Prob:     p,
			Battery:  lvl,
			Recharge: amt,
		}
		o.w.Rec(rec)
		o.recs++
		if o.fr != nil {
			o.fr.Record(&rec)
		}
	} else if o.fr != nil && (p > 0 || flags&trace.FlagEvent != 0) {
		o.fr.RecordSlot(t, int32(s), o.engine, flags, int32(h), int32(f), p, lvl, amt)
	}
}

// marker traces an aggregate (Sensor = -1) record for an event slot.
// Replay counts events from the trace, so an event slot needs a record
// even when no sensor decided in it.
func (o *observer) marker(t int64, flags uint8, h, f int64) {
	o.tr.Slot(trace.Rec{Slot: t, Sensor: -1, Engine: o.engine, Flags: flags, H: int32(h), F: int32(f)})
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
// does not sample. Awake-slot engines keep the countdown in a local, so
// the uninstrumented loop pays one decrement-and-test per awake slot.
func (o *observer) stride() int64 {
	if o.sampling {
		return batterySampleStride
	}
	return math.MaxInt64
}

// battery records one sample of sensor 0's end-of-slot battery level.
func (o *observer) battery(lvl float64) {
	frac := lvl * o.invCap
	if o.m != nil {
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
	if o.sp != nil {
		o.sp.ObserveBattery(frac)
	}
}

// finish is every engine's epilogue: the pooled QoM, the trace's run
// end, the engine count, the Metrics derived fields and process-wide
// publication, and the stats report.
func (o *observer) finish(res *Result) {
	if res.Events > 0 {
		res.QoM = float64(res.Captures) / float64(res.Events)
	}
	if o.tr != nil {
		o.tr.RunEnd(trace.RunEnd{Events: res.Events, Captures: res.Captures})
	}
	recordEngine(res.Engine)
	if o.m != nil {
		// An activation on an event slot always captures, so the wasted
		// (no-event) activations are exactly activations − captures,
		// summed over every sensor block of the result; deriving them
		// here keeps the branch out of every hot activation path.
		for i := range res.Sensors {
			o.m.WastedActivations += res.Sensors[i].Activations - res.Sensors[i].Captures
		}
		res.Metrics = o.m
		o.m.publish(res)
	}
	o.sp.finish(res)
}
