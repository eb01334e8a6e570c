package trace

import (
	"encoding/json"
	"net/http"
	"sync"
)

// maxStoredDumps bounds the dumps a recorder keeps in memory; the
// earliest triggers are kept (the first anomaly is the one that
// explains the rest) and every trigger still counts in its DumpReason
// metric.
const maxStoredDumps = 8

// SensorDump is one sensor's ring contents, oldest record first.
type SensorDump struct {
	Sensor  int   `json:"sensor"`
	Records []Rec `json:"records"`
}

// Dump is one flight-recorder dump: the triggering context plus the
// ring contents of the sensors involved.
type Dump struct {
	Reason string `json:"reason"`
	// Slot is the slot at which the trigger fired.
	Slot int64 `json:"slot"`
	// Run identifies the traced run the trigger belongs to.
	Run     RunInfo      `json:"run"`
	Sensors []SensorDump `json:"sensors"`
}

// FlightRecorder keeps a fixed-size ring of the last N decision-relevant
// slot records per sensor. Recording is lock-free — each engine context
// writes only its own sensor's ring — and costs one ring store plus an
// invariant check per record; the mutex guards only the rare dump path
// and the HTTP handler.
//
// Engines call BeginRun/Record/Span/EndRun from the run's own
// goroutine; the handler never reads live rings, only completed dumps
// and the snapshot EndRun takes, so no lock sits on the hot path.
type FlightRecorder struct {
	size int
	mask int64

	rings [][]Rec
	heads []int64
	info  RunInfo
	// capHi is the battery invariant's upper bound (BatteryCap plus
	// rounding slack), precomputed per run so the per-record check is
	// four compares with no arithmetic.
	capHi float64

	invariantFired bool
	outageFired    bool

	mu         sync.Mutex
	dumps      []Dump
	totalDumps int64
	lastRun    []SensorDump // EndRun's snapshot of the final rings
	lastInfo   RunInfo
	lastEnd    RunEnd
	haveRun    bool
}

// NewFlightRecorder returns a recorder keeping the last n records per
// sensor (n is rounded up to a power of two, minimum 16).
func NewFlightRecorder(n int) *FlightRecorder {
	size := 16
	for size < n {
		size <<= 1
	}
	return &FlightRecorder{size: size, mask: int64(size - 1)}
}

// RingSize returns the per-sensor ring capacity.
func (fr *FlightRecorder) RingSize() int { return fr.size }

// BeginRun resets the rings for a new traced run.
func (fr *FlightRecorder) BeginRun(info RunInfo) {
	fr.info = info
	fr.capHi = info.BatteryCap * (1 + 1e-9)
	fr.invariantFired = false
	fr.outageFired = false
	if len(fr.rings) < info.Sensors {
		fr.rings = make([][]Rec, info.Sensors)
		fr.heads = make([]int64, info.Sensors)
		for s := range fr.rings {
			fr.rings[s] = make([]Rec, fr.size)
		}
	}
	for s := range fr.heads {
		fr.heads[s] = 0
	}
}

// Record pushes one slot record onto its sensor's ring and checks the
// state invariants (probability in [0,1], battery in [0,K]); a
// violation triggers an automatic dump, once per run. Records with
// Sensor < 0 (slot markers) carry no sensor state and are skipped.
// The record is passed by pointer so the hot path copies its 48 bytes
// exactly once (caller's stack → ring slot); the pointer is not
// retained. The rare trigger path lives in invariantHit — this call is
// the armed recorder's per-slot cost, priced against the ≤2% budget of
// BENCH_trace.json.
func (fr *FlightRecorder) Record(r *Rec) {
	s := int(r.Sensor)
	if s < 0 || s >= len(fr.rings) {
		return
	}
	h := fr.heads[s]
	fr.rings[s][h&fr.mask] = *r
	fr.heads[s] = h + 1
	if r.Prob < 0 || r.Prob > 1 || r.Battery < 0 || r.Battery > fr.capHi {
		fr.invariantHit(r.Slot, s)
	}
}

// RecordSlot is Record with the fields passed as arguments instead of
// through a Rec. Engines use it on flight-only runs (no full-trace
// writer forcing a Rec into existence anyway): the fields travel in
// registers and are stored exactly once, into the ring slot — the
// cheapest shape a record can take, and the one the ≤2% armed-recorder
// budget of BENCH_trace.json is priced against.
func (fr *FlightRecorder) RecordSlot(slot int64, sensor int32, engine, flags uint8, h, f int32, prob, battery, recharge float64) {
	s := int(sensor)
	if s < 0 || s >= len(fr.rings) {
		return
	}
	hd := fr.heads[s]
	r := &fr.rings[s][hd&fr.mask]
	r.Slot = slot
	r.Sensor = sensor
	r.Engine = engine
	r.Flags = flags
	r.H = h
	r.F = f
	r.Prob = prob
	r.Battery = battery
	r.Recharge = recharge
	fr.heads[s] = hd + 1
	if prob < 0 || prob > 1 || battery < 0 || battery > fr.capHi {
		fr.invariantHit(slot, s)
	}
}

// invariantHit is Record's cold path: dump once per run.
func (fr *FlightRecorder) invariantHit(slot int64, s int) {
	if fr.invariantFired {
		return
	}
	fr.invariantFired = true
	fr.trigger(DumpInvariant, slot, s)
}

// Span records a fast-forwarded sleep run in the (single-sensor)
// kernel's ring as a FlagSpan entry, reusing Rec fields: H holds the
// run length, F the events slept through, Recharge the delivered
// energy, Battery the level at the end of the run.
func (fr *FlightRecorder) Span(sp Span) {
	fr.Record(&Rec{
		Slot:     sp.Start,
		Sensor:   0,
		Engine:   EngineKernel,
		Flags:    FlagSpan,
		H:        int32(sp.Len),
		F:        int32(sp.Events),
		Battery:  sp.Battery,
		Recharge: sp.Delivered,
	})
}

// Fault records a sensor death at slot and dumps that sensor's ring.
func (fr *FlightRecorder) Fault(sensor int, slot int64) {
	fr.trigger(DumpFault, slot, sensor)
}

// OutageMiss records a missed event whose activation attempts all hit
// the energy gate; the first one per run dumps every ring (which sensor
// starved is exactly the open question).
func (fr *FlightRecorder) OutageMiss(slot int64) {
	if fr.outageFired {
		return
	}
	fr.outageFired = true
	sensors := make([]int, len(fr.rings))
	for s := range sensors {
		sensors[s] = s
	}
	fr.trigger(DumpOutageMiss, slot, sensors...)
}

// EndRun snapshots the final rings so the debug handler can serve the
// last completed run without touching live state.
func (fr *FlightRecorder) EndRun(e RunEnd) {
	snap := make([]SensorDump, len(fr.rings))
	for s := range fr.rings {
		snap[s] = fr.snapshotRing(s)
	}
	fr.mu.Lock()
	fr.lastRun = snap
	fr.lastInfo = fr.info
	fr.lastEnd = e
	fr.haveRun = true
	fr.mu.Unlock()
}

// snapshotRing copies sensor s's ring in oldest-first order. Callers
// must own the ring (engine context) or hold fr.mu over a completed
// run's data.
func (fr *FlightRecorder) snapshotRing(s int) SensorDump {
	head := fr.heads[s]
	n := head
	if n > int64(fr.size) {
		n = int64(fr.size)
	}
	out := SensorDump{Sensor: s, Records: make([]Rec, 0, n)}
	for i := head - n; i < head; i++ {
		out.Records = append(out.Records, fr.rings[s][i&fr.mask])
	}
	return out
}

// trigger counts and stores one dump of the given sensors' rings. The
// calling goroutine must own those rings.
func (fr *FlightRecorder) trigger(reason DumpReason, slot int64, sensors ...int) {
	reason.c.Add(1)
	d := Dump{Reason: reason.String(), Slot: slot, Run: fr.info}
	for _, s := range sensors {
		if s >= 0 && s < len(fr.rings) {
			d.Sensors = append(d.Sensors, fr.snapshotRing(s))
		}
	}
	fr.mu.Lock()
	fr.totalDumps++
	if len(fr.dumps) < maxStoredDumps {
		fr.dumps = append(fr.dumps, d)
	}
	fr.mu.Unlock()
}

// Dumps returns the stored dumps (earliest triggers first).
func (fr *FlightRecorder) Dumps() []Dump {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return append([]Dump(nil), fr.dumps...)
}

// TotalDumps returns how many triggers fired (stored or not).
func (fr *FlightRecorder) TotalDumps() int64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.totalDumps
}

// flightView is the JSON document the debug handler serves.
type flightView struct {
	RingSize   int          `json:"ring_size"`
	TotalDumps int64        `json:"total_dumps"`
	Dumps      []Dump       `json:"dumps"`
	LastRun    *lastRunView `json:"last_run,omitempty"`
}

type lastRunView struct {
	Run      RunInfo      `json:"run"`
	Events   int64        `json:"events"`
	Captures int64        `json:"captures"`
	Sensors  []SensorDump `json:"sensors"`
}

// Handler serves the recorder's state as JSON: the stored dumps plus
// the final rings of the last completed run (live rings are never read,
// so a mid-run request sees the previous run — the price of a lock-free
// hot path).
func (fr *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		fr.mu.Lock()
		view := flightView{
			RingSize:   fr.size,
			TotalDumps: fr.totalDumps,
			Dumps:      append([]Dump(nil), fr.dumps...),
		}
		if fr.haveRun {
			view.LastRun = &lastRunView{
				Run:      fr.lastInfo,
				Events:   fr.lastEnd.Events,
				Captures: fr.lastEnd.Captures,
				Sensors:  fr.lastRun,
			}
		}
		fr.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
}
