package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndCounters(t *testing.T) {
	root := BeginSpan("run")
	compile := root.Child("compile")
	compile.Count("fallback.batch", 1)
	compile.Count("fallback.batch", 2)
	compile.End()
	exec := root.Child("exec")
	exec.Count("slots", 1000)
	exec.End()
	root.End()

	if root.Name() != "run" {
		t.Fatalf("name = %q", root.Name())
	}
	if len(root.children) != 2 {
		t.Fatalf("children = %d, want 2", len(root.children))
	}
	if compile.counters[0].n != 3 {
		t.Fatalf("counter = %d, want 3 (summed)", compile.counters[0].n)
	}
	if compile.lane != root.lane {
		t.Fatal("Child must share the parent's lane")
	}
	if root.Wall() < 0 {
		t.Fatalf("wall = %v", root.Wall())
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	s := BeginSpan("once")
	s.End()
	end := s.end
	time.Sleep(2 * time.Millisecond)
	s.End()
	if !s.end.Equal(end) {
		t.Fatal("second End moved the end time")
	}
}

func TestSpanNilSafe(t *testing.T) {
	var s *Span
	// None of these may panic, and derived spans stay nil.
	c := s.Child("a")
	f := s.Fork("b")
	s.End()
	s.Count("k", 1)
	if c != nil || f != nil {
		t.Fatal("children of nil span must be nil")
	}
	if s.Name() != "" || s.Wall() != 0 || s.Breakdown() != nil {
		t.Fatal("nil span accessors must return zero values")
	}
}

func TestSpanForkConcurrent(t *testing.T) {
	root := BeginSpan("root")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := root.Fork("chunk")
			f.Count("replications", 10)
			f.End()
		}()
	}
	wg.Wait()
	root.End()
	if len(root.children) != 32 {
		t.Fatalf("children = %d, want 32", len(root.children))
	}
	lanes := make(map[int64]bool)
	for _, c := range root.children {
		lanes[c.lane] = true
	}
	if len(lanes) != 32 {
		t.Fatalf("forks share lanes: %d distinct of 32", len(lanes))
	}
}

func TestBreakdownMergesSameNamedSiblings(t *testing.T) {
	root := BeginSpan("run")
	for i := 0; i < 3; i++ {
		f := root.Fork("chunk")
		f.Count("replications", 5)
		sub := f.Child("aggregate")
		sub.End()
		f.End()
	}
	w := root.Child("write")
	w.End()
	root.End()

	ph := root.Breakdown()
	if ph.Name != "run" || ph.Count != 1 {
		t.Fatalf("root phase = %+v", ph)
	}
	if len(ph.Phases) != 2 {
		t.Fatalf("top-level phases = %d, want 2 (chunk, write)", len(ph.Phases))
	}
	chunk := ph.Phases[0]
	if chunk.Name != "chunk" || chunk.Count != 3 {
		t.Fatalf("chunk phase = %+v", chunk)
	}
	if chunk.Counters["replications"] != 15 {
		t.Fatalf("merged counter = %d, want 15", chunk.Counters["replications"])
	}
	if len(chunk.Phases) != 1 || chunk.Phases[0].Name != "aggregate" || chunk.Phases[0].Count != 3 {
		t.Fatalf("merged grandchildren = %+v", chunk.Phases)
	}
	if ph.Phases[1].Name != "write" {
		t.Fatal("first-seen order not preserved")
	}
}

func TestPhaseJSONRoundTrip(t *testing.T) {
	root := BeginSpan("run")
	root.Child("solve").End()
	root.End()
	data, err := json.Marshal(root.Breakdown())
	if err != nil {
		t.Fatal(err)
	}
	var back Phase
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "run" || len(back.Phases) != 1 || back.Phases[0].Name != "solve" {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	root := BeginSpan("fig3a")
	c := root.Child("compile")
	c.Count("fallback.batch", 1)
	c.End()
	root.Fork("chunk").End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, root, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			Ts   int64            `json:"ts"`
			Dur  int64            `json:"dur"`
			Pid  int64            `json:"pid"`
			Tid  int64            `json:"tid"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for i, ev := range doc.TraceEvents {
		byName[ev.Name] = i
		if ev.Ph != "X" {
			t.Errorf("event %s: ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("event %s: ts/dur = %d/%d", ev.Name, ev.Ts, ev.Dur)
		}
		if ev.Pid != 1 {
			t.Errorf("event %s: pid = %d", ev.Name, ev.Pid)
		}
	}
	if len(byName) != 3 {
		t.Fatalf("names = %v", byName)
	}
	root3 := doc.TraceEvents[byName["fig3a"]]
	if doc.TraceEvents[byName["compile"]].Tid != root3.Tid {
		t.Error("compile (Child) should share the root's lane")
	}
	if doc.TraceEvents[byName["chunk"]].Tid == root3.Tid {
		t.Error("chunk (Fork) should get its own lane")
	}
	if got := doc.TraceEvents[byName["compile"]].Args["fallback.batch"]; got != 1 {
		t.Errorf("compile args = %d, want 1", got)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Error("trace file should end with a newline")
	}
}

func TestSpanMetricsBalance(t *testing.T) {
	begun, ended := SpanBegun.Load(), SpanEnded.Load()
	s := BeginSpan("bal")
	s.Child("c").End()
	s.End()
	if got := SpanBegun.Load() - begun; got != 2 {
		t.Fatalf("span.begun grew by %d, want 2", got)
	}
	if got := SpanEnded.Load() - ended; got != 2 {
		t.Fatalf("span.ended grew by %d, want 2", got)
	}
}
