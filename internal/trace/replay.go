package trace

import (
	"fmt"
	"io"
)

// Summary is a trace-only reconstruction of a run set's results: every
// field below is re-derived purely from the frame stream, then checked
// against each run's RunEnd totals, so a Summary that comes back
// without error is a self-verified audit of the trace. cmd/tracetool's
// replay subcommand compares it against the run manifest's metrics
// block.
type Summary struct {
	Runs    int64
	Records int64
	Spans   int64

	// Events/Captures count event slots (captured by at least one
	// sensor), matching sim.Result and the sim.events / sim.captures
	// counters.
	Events   int64
	Captures int64
	// The miss decomposition: Captures + MissAsleep + MissNoEnergy ==
	// Events (spans contribute all their events to MissAsleep).
	MissAsleep   int64
	MissNoEnergy int64

	// Activations and SensorCaptures count per-sensor records, so with
	// multiple sensors they can exceed the slot-level totals above;
	// Wasted = Activations - SensorCaptures (the sim.wasted_activations
	// identity).
	Activations    int64
	SensorCaptures int64
	Denied         int64
	Wasted         int64

	SpanSlots  int64
	SpanEvents int64

	// QoM is Captures/Events over the whole trace.
	QoM float64
}

// replayRun accumulates one run's reconstruction.
type replayRun struct {
	// eventFlags ORs the flags of every record at each event slot
	// (per-sensor records and slot markers agree by construction; the
	// OR makes replay independent of record order within a slot).
	eventFlags map[int64]uint8
	spanEvents int64
	spanSlots  int64
	started    bool
}

// Replay reconstructs a Summary from a trace stream, verifying each
// run's reconstruction against its RunEnd frame. Any complete trace a
// Writer wrote replays.
func Replay(r io.Reader) (*Summary, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	sum := &Summary{}
	run := replayRun{}
	for {
		f, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch f.Kind {
		case FrameRunStart:
			if run.started {
				return nil, fmt.Errorf("trace: replay: run %d has no RunEnd frame", sum.Runs)
			}
			run = replayRun{eventFlags: make(map[int64]uint8), started: true}
		case FrameSlot:
			if !run.started {
				return nil, fmt.Errorf("trace: replay: slot record before any RunStart")
			}
			sum.Records++
			rec := f.Rec
			if rec.Flags&FlagEvent != 0 {
				run.eventFlags[rec.Slot] |= rec.Flags
			}
			if rec.Sensor >= 0 {
				if rec.Flags&FlagActive != 0 {
					sum.Activations++
				}
				if rec.Flags&FlagDenied != 0 {
					sum.Denied++
				}
				if rec.Flags&FlagCaptured != 0 {
					sum.SensorCaptures++
				}
			}
		case FrameSpan:
			if !run.started {
				return nil, fmt.Errorf("trace: replay: span record before any RunStart")
			}
			sum.Spans++
			run.spanEvents += f.Span.Events
			run.spanSlots += f.Span.Len
		case FrameRunEnd:
			if !run.started {
				return nil, fmt.Errorf("trace: replay: RunEnd without RunStart")
			}
			events := int64(len(run.eventFlags)) + run.spanEvents
			var captures, noenergy int64
			// nondeterm:ok order-independent counting over the slot set
			for _, flags := range run.eventFlags {
				switch {
				case flags&FlagCaptured != 0:
					captures++
				case flags&FlagDenied != 0:
					noenergy++
				}
			}
			if events != f.End.Events || captures != f.End.Captures {
				return nil, fmt.Errorf(
					"trace: replay: run %d reconstructed events=%d captures=%d, but RunEnd recorded events=%d captures=%d",
					sum.Runs, events, captures, f.End.Events, f.End.Captures)
			}
			sum.Runs++
			sum.Events += events
			sum.Captures += captures
			sum.MissNoEnergy += noenergy
			sum.MissAsleep += events - captures - noenergy
			sum.SpanEvents += run.spanEvents
			sum.SpanSlots += run.spanSlots
			run = replayRun{}
		}
	}
	if run.started {
		return nil, fmt.Errorf("trace: replay: trace ends mid-run (missing RunEnd)")
	}
	sum.Wasted = sum.Activations - sum.SensorCaptures
	if sum.Events > 0 {
		sum.QoM = float64(sum.Captures) / float64(sum.Events)
	}
	return sum, nil
}
