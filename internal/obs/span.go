package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span metrics: how many spans the process opened and closed. A gap
// between the two in a Snapshot taken after every phase ended is a leak
// (a phase that never calls End).
var (
	SpanBegun = NewCounter("span.begun")
	SpanEnded = NewCounter("span.ended")
)

// spanLane allocates Chrome-trace lanes ("tid" rows): sequential phases
// share their parent's lane, concurrent forks get fresh ones, so the
// trace viewer stacks parallel work instead of overlapping it.
var spanLane atomic.Int64

// Span is one timed phase of a pipeline: begun with a monotonic clock,
// ended once, carrying named counters and child spans. Spans wrap
// phases — a policy solve, a kernel compile, a chunk of batch
// replications — never per-slot work, so the tracer stays within the
// slot-loop overhead budget of DESIGN.md §9 by construction.
//
// Like every obs type, spans never draw from a random stream: attaching
// a span tree to a simulation cannot change any output byte (the
// RNG-neutrality contract, asserted by TestSpansDoNotChangeResults).
//
// All methods are safe on a nil *Span and do nothing, so instrumented
// code needs no "is tracing on" branches: a nil parent yields nil
// children, and a disabled pipeline pays only nil checks.
type Span struct {
	name  string
	lane  int64
	start time.Time

	mu       sync.Mutex
	end      time.Time // zero while the span is open
	counters []spanCounter
	children []*Span
}

// spanCounter keeps per-span counters in first-touch order, so exports
// are deterministic without sorting on the hot path.
type spanCounter struct {
	key string
	n   int64
}

// BeginSpan starts a root span on a fresh lane.
func BeginSpan(name string) *Span {
	SpanBegun.Inc()
	return &Span{name: name, lane: spanLane.Add(1), start: time.Now()}
}

func (s *Span) newChild(name string, lane int64) *Span {
	if s == nil {
		return nil
	}
	SpanBegun.Inc()
	c := &Span{name: name, lane: lane, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Child starts a sub-span on the parent's lane: use it for sequential
// phases (compile, then execute, then aggregate). Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.newChild(name, s.lane)
}

// Fork starts a sub-span on a fresh lane: use it for concurrent phases
// (batch chunks, sweep points fanned across the pool), which may call
// Fork from multiple goroutines at once. Nil-safe.
func (s *Span) Fork(name string) *Span {
	if s == nil {
		return nil
	}
	return s.newChild(name, spanLane.Add(1))
}

// End closes the span at the current monotonic clock. Idempotent: only
// the first End sets the duration. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
		SpanEnded.Inc()
	}
	s.mu.Unlock()
}

// Count adds n to the span's named counter (created on first use).
// Nil-safe; callable from the span's own goroutine only, or after
// synchronization — counters are guarded by the span's mutex.
func (s *Span) Count(key string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.counters {
		if s.counters[i].key == key {
			s.counters[i].n += n
			s.mu.Unlock()
			return
		}
	}
	s.counters = append(s.counters, spanCounter{key, n})
	s.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Wall returns the span's duration: end−start once ended, time since
// start while open, 0 on nil.
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// Phase is the exported, aggregated view of a span subtree: same-named
// sibling spans merge into one Phase (summed wall time and counters,
// recursively merged children), so a batch run's 40 "chunk" forks
// export as one phase with Count 40 rather than 40 manifest entries.
// This is the manifest's "phases" block.
type Phase struct {
	Name string `json:"name"`
	// Count is how many spans merged into this phase.
	Count int64 `json:"count"`
	// WallMicros is the summed wall time of the merged spans, µs.
	WallMicros int64            `json:"wall_us"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Phases     []*Phase         `json:"phases,omitempty"`
}

// Breakdown exports the span's subtree as a merged Phase tree. Open
// descendants contribute their wall time so far.
func (s *Span) Breakdown() *Phase {
	if s == nil {
		return nil
	}
	merged := mergePhases([]*Span{s})
	return merged[0]
}

// mergePhases groups spans by name in first-seen order and merges each
// group into one Phase.
func mergePhases(spans []*Span) []*Phase {
	var order []string
	groups := make(map[string][]*Span)
	for _, sp := range spans {
		if _, seen := groups[sp.name]; !seen {
			order = append(order, sp.name)
		}
		groups[sp.name] = append(groups[sp.name], sp)
	}
	out := make([]*Phase, 0, len(order))
	for _, name := range order {
		group := groups[name]
		ph := &Phase{Name: name, Count: int64(len(group))}
		var kids []*Span
		for _, sp := range group {
			ph.WallMicros += sp.Wall().Microseconds()
			sp.mu.Lock()
			for _, c := range sp.counters {
				if ph.Counters == nil {
					ph.Counters = make(map[string]int64)
				}
				ph.Counters[c.key] += c.n
			}
			kids = append(kids, sp.children...)
			sp.mu.Unlock()
		}
		if len(kids) > 0 {
			ph.Phases = mergePhases(kids)
		}
		out = append(out, ph)
	}
	return out
}

// chromeEvent is one Trace Event Format entry: a "complete" event
// (ph "X") with microsecond timestamp and duration, as consumed by
// chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   int64            `json:"ts"`
	Dur  int64            `json:"dur"`
	Pid  int64            `json:"pid"`
	Tid  int64            `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// WriteChromeTrace writes the span trees rooted at roots as Chrome
// trace-event JSON: one complete event per span, timestamps relative to
// the earliest root's start, lanes as thread ids. Load the file in
// chrome://tracing or https://ui.perfetto.dev. Open spans are emitted
// with their duration so far.
func WriteChromeTrace(w io.Writer, roots ...*Span) error {
	var base time.Time
	for _, r := range roots {
		if r == nil {
			continue
		}
		if base.IsZero() || r.start.Before(base) {
			base = r.start
		}
	}
	var events []chromeEvent
	var walk func(sp *Span)
	walk = func(sp *Span) {
		ev := chromeEvent{
			Name: sp.name,
			Ph:   "X",
			Ts:   sp.start.Sub(base).Microseconds(),
			Dur:  sp.Wall().Microseconds(),
			Pid:  1,
			Tid:  sp.lane,
		}
		sp.mu.Lock()
		if len(sp.counters) > 0 {
			ev.Args = make(map[string]int64, len(sp.counters))
			for _, c := range sp.counters {
				ev.Args[c.key] = c.n
			}
		}
		kids := append([]*Span(nil), sp.children...)
		sp.mu.Unlock()
		events = append(events, ev)
		for _, c := range kids {
			walk(c)
		}
	}
	for _, r := range roots {
		if r != nil {
			walk(r)
		}
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("obs: marshaling chrome trace: %w", err)
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("obs: writing chrome trace: %w", err)
	}
	return nil
}
