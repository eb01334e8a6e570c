package trace

// Tracer fans simulation trace callbacks out to the attached sinks: a
// full-trace Writer, a FlightRecorder, or both. The engines hold a
// possibly-nil *Tracer and guard every call site on it, so the untraced
// hot path pays one predictable branch per slot.
//
// Engines may skip Slot calls for decision-irrelevant slots (activation
// probability zero and no event) unless a Writer is attached — the full
// trace records every decided slot, the flight recorder only the ones
// worth replaying a debugging session over.
type Tracer struct {
	w  *Writer
	fr *FlightRecorder
}

// New returns a tracer over the given sinks (either may be nil; a
// tracer with neither is valid and records nothing).
func New(w *Writer, fr *FlightRecorder) *Tracer {
	return &Tracer{w: w, fr: fr}
}

// Writer returns the attached full-trace writer, if any.
func (t *Tracer) Writer() *Writer { return t.w }

// Recorder returns the attached flight recorder, if any.
func (t *Tracer) Recorder() *FlightRecorder { return t.fr }

// RunStart opens a traced run.
func (t *Tracer) RunStart(info RunInfo) {
	if t.w != nil {
		t.w.RunStart(info)
	}
	if t.fr != nil {
		t.fr.BeginRun(info)
	}
}

// Slot records one slot decision. Engine hot loops bypass this fan-out
// by caching Writer()/Recorder() and calling the sinks directly (one
// record copy instead of two); Slot remains for the cold sites.
func (t *Tracer) Slot(r Rec) {
	if t.w != nil {
		t.w.Rec(r)
	}
	if t.fr != nil {
		t.fr.Record(&r)
	}
}

// Span records one fast-forwarded sleep run.
func (t *Tracer) Span(sp Span) {
	if t.w != nil {
		t.w.Span(sp)
	}
	if t.fr != nil {
		t.fr.Span(sp)
	}
}

// RunEnd closes the current run with the engine's totals.
func (t *Tracer) RunEnd(e RunEnd) {
	if t.w != nil {
		t.w.RunEnd(e)
	}
	if t.fr != nil {
		t.fr.EndRun(e)
	}
}

// Fault reports a sensor death (flight-recorder trigger; the full trace
// shows the death as the sensor's records simply stopping).
func (t *Tracer) Fault(sensor int, slot int64) {
	if t.fr != nil {
		t.fr.Fault(sensor, slot)
	}
}

// OutageMiss reports an event missed with every activation attempt
// energy-denied (flight-recorder trigger).
func (t *Tracer) OutageMiss(slot int64) {
	if t.fr != nil {
		t.fr.OutageMiss(slot)
	}
}
