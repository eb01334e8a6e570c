// Package trace is the slot-level tracing subsystem of the simulation
// stack (DESIGN.md §11). It records what the aggregate counters of
// internal/obs cannot answer: the hazard state, battery level,
// activation probability and decision outcome of individual slots, so a
// missed event can be explained rather than merely counted.
//
// A streaming Writer encodes every decided slot (and, on the compiled
// kernel, every fast-forwarded sleep run as one compressed Span) into a
// compact binary file. The Reader, Replay, Stats and Diff functions
// consume that file; cmd/tracetool wraps them.
//
// The package depends only on the standard library and internal/obs,
// and — like obs — never draws from a random stream: attaching a Writer
// cannot change any simulation output (the RNG-neutrality contract of
// DESIGN.md §9, asserted by TestTracingDoesNotChangeResults).
package trace

import "eventcap/internal/obs"

// Engine codes tag each record with the execution path that produced it.
// They mirror sim's engines but are fixed small integers so the binary
// format does not depend on sim's iota ordering.
const (
	// EngineReference is the interpreted per-slot engine.
	EngineReference uint8 = 1
	// EngineKernel is the compiled slot-skipping kernel.
	EngineKernel uint8 = 2
)

// EngineName renders an engine code for human-facing output.
func EngineName(code uint8) string {
	switch code {
	case EngineReference:
		return "reference"
	case EngineKernel:
		return "kernel"
	}
	return "unknown"
}

// Rec flag bits. FlagActive and FlagDenied are mutually exclusive;
// FlagCaptured implies FlagActive and FlagEvent.
const (
	// FlagEvent marks a slot in which the event occurred.
	FlagEvent uint8 = 1 << iota
	// FlagActive marks a successful activation (energy gate passed).
	FlagActive
	// FlagDenied marks an activation attempt blocked by the energy gate.
	FlagDenied
	// FlagCaptured marks an activation that captured the slot's event.
	FlagCaptured
)

// Rec is one slot-level trace record: the decision-time view of one
// sensor in one slot. A Sensor of -1 marks an aggregate per-slot record:
// an event slot in which no individual sensor decided.
type Rec struct {
	// Slot is the 1-based absolute slot number.
	Slot int64
	// Sensor is the 0-based deciding sensor, or -1 for a slot marker.
	Sensor int32
	// Engine is the engine code that executed the slot.
	Engine uint8
	// Flags is the decision outcome (Flag* bits).
	Flags uint8
	// H is the full-information hazard state h (slots since the last
	// event) at decision time; -1 under partial information.
	H int32
	// F is the partial-information state f (slots since the last
	// capture) at decision time; -1 when not tracked.
	F int32
	// Prob is the policy's activation probability for this state.
	Prob float64
	// Battery is the sensor's energy level after recharge, at decision
	// time.
	Battery float64
	// Recharge is the energy delivered to the sensor this slot.
	Recharge float64
}

// Span is one fast-forwarded sleep run of the compiled kernel,
// compressed into a single record: the policy was provably silent for
// Len slots, so no per-slot decisions exist to trace.
type Span struct {
	// Start is the first slot of the run (1-based).
	Start int64
	// Len is the number of slots fast-forwarded.
	Len int64
	// Events is how many events fell inside the run — all of them
	// policy-scheduled misses (miss-asleep) by construction.
	Events int64
	// State is the sim.StateKind code driving the run length.
	State uint8
	// Delivered is the total recharge energy delivered across the run.
	Delivered float64
	// Battery is the level at the end of the run.
	Battery float64
}

// RunInfo opens each traced run with the configuration a reader needs
// to interpret its records.
type RunInfo struct {
	Engine     uint8
	Sensors    int
	Seed       uint64
	Slots      int64
	BatteryCap float64
	// Cost is the activation cost δ1+δ2 the energy gate enforces;
	// Battery < Cost at decision time is an energy outage.
	Cost     float64
	Policy   string
	Dist     string
	Recharge string
}

// RunEnd closes each traced run with the engine's own totals, letting
// any reader self-verify its reconstruction (Replay asserts against
// these before trusting a file).
type RunEnd struct {
	Events   int64
	Captures int64
}

// Counts summarizes what a Writer emitted.
type Counts struct {
	Runs    int64
	Records int64
	Spans   int64
	Bytes   int64
}

// Process-wide trace totals, flushed by Writer.Close rather than per
// record so the streaming hot path never touches an atomic.
var (
	tracedRuns    = obs.NewCounter("trace.runs")
	tracedRecords = obs.NewCounter("trace.records")
	tracedSpans   = obs.NewCounter("trace.spans")
	tracedBytes   = obs.NewCounter("trace.bytes")
)
