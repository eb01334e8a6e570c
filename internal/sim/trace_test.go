package sim

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"eventcap/internal/trace"
)

// tracedCases is the engineCases subset whose engines accept a tracer.
func tracedCases(t *testing.T) []engineCase {
	t.Helper()
	var cases []engineCase
	for _, ec := range engineCases(t) {
		if ec.traced {
			cases = append(cases, ec)
		}
	}
	return cases
}

// tracedSlots runs cfg under a full slot trace and returns its decoded
// slot records, in trace order.
func tracedSlots(t *testing.T, cfg Config) []trace.Rec {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	cfg.Tracer = trace.New(w, nil)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Rec
	for {
		f, err := r.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == trace.FrameSlot {
			recs = append(recs, f.Rec)
		}
	}
}

// TestTracingDoesNotChangeResults is the RNG-neutrality contract of
// Config.Tracer: attaching a full-trace writer, a flight recorder, or
// both must leave the Result byte-identical, on every execution path
// that accepts a tracer.
func TestTracingDoesNotChangeResults(t *testing.T) {
	for _, ec := range tracedCases(t) {
		name, cfg := ec.name, ec.cfg
		cfg.Tracer = nil
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mode := range []string{"full", "flight", "full+flight"} {
			var buf bytes.Buffer
			var w *trace.Writer
			var fr *trace.FlightRecorder
			if mode == "full" || mode == "full+flight" {
				w = trace.NewWriter(&buf)
			}
			if mode == "flight" || mode == "full+flight" {
				fr = trace.NewFlightRecorder(64)
			}
			cfg.Tracer = trace.New(w, fr)
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode, err)
			}
			if w != nil {
				if err := w.Close(); err != nil {
					t.Fatalf("%s/%s: %v", name, mode, err)
				}
				if w.Counts().Records == 0 {
					t.Fatalf("%s/%s: trace captured no records", name, mode)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: tracing changed the run:\nwith    %+v\nwithout %+v", name, mode, got, want)
			}
		}
	}
}

// TestTraceReplayMatchesResults re-derives each configuration's results
// purely from its trace (trace.Replay) and checks them against the
// engine's own Result and Metrics — the acceptance contract behind
// cmd/tracetool's replay subcommand, here asserted for every execution
// path including a kernel run with compressed sleep spans.
func TestTraceReplayMatchesResults(t *testing.T) {
	sawSpans := false
	for _, ec := range tracedCases(t) {
		name, cfg := ec.name, ec.cfg
		cfg.Metrics = true
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		cfg.Tracer = trace.New(w, nil)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum, err := trace.Replay(&buf)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		m := res.Metrics
		if sum.Runs != 1 || sum.Events != res.Events || sum.Captures != res.Captures {
			t.Errorf("%s: replay events/captures %d/%d, result %d/%d (runs %d)",
				name, sum.Events, sum.Captures, res.Events, res.Captures, sum.Runs)
		}
		if sum.MissAsleep != m.MissAsleep || sum.MissNoEnergy != m.MissNoEnergy {
			t.Errorf("%s: replay miss decomposition asleep=%d noenergy=%d, metrics asleep=%d noenergy=%d",
				name, sum.MissAsleep, sum.MissNoEnergy, m.MissAsleep, m.MissNoEnergy)
		}
		if sum.Wasted != m.WastedActivations {
			t.Errorf("%s: replay wasted %d, metrics %d", name, sum.Wasted, m.WastedActivations)
		}
		var activations, denied int64
		for _, s := range res.Sensors {
			activations += s.Activations
			denied += s.Denied
		}
		if sum.Activations != activations || sum.Denied != denied {
			t.Errorf("%s: replay activations/denied %d/%d, sensors %d/%d",
				name, sum.Activations, sum.Denied, activations, denied)
		}
		if res.Engine == EngineKernel {
			if sum.Spans == 0 || sum.Spans != m.KernelRuns || sum.SpanSlots != m.KernelSlotsFastForwarded {
				t.Errorf("%s: replay spans %d (%d slots), kernel metrics %d runs (%d slots)",
					name, sum.Spans, sum.SpanSlots, m.KernelRuns, m.KernelSlotsFastForwarded)
			}
			sawSpans = true
		}
	}
	if !sawSpans {
		t.Fatal("no kernel configuration exercised span replay")
	}
}

// TestTraceDeterministicAcrossRuns: a traced decoupled fleet must equal
// its untraced run, and consecutive traced runs must produce
// byte-identical trace files.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	cfg := engineCaseConfig(t, "independent")
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	traceBytes := func() []byte {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		traced := cfg
		traced.Tracer = trace.New(w, nil)
		got, err := Run(traced)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("traced run diverged:\nwith    %+v\nwithout %+v", got, want)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(traceBytes(), traceBytes()) {
		t.Fatal("consecutive traced runs produced different trace bytes")
	}
}

// TestTraceFaultDump: fault injection must trigger a flight-recorder
// fault dump for the failed sensor.
func TestTraceFaultDump(t *testing.T) {
	cfg := engineCaseConfig(t, "reference-faults")
	fr := trace.NewFlightRecorder(32)
	cfg.Tracer = trace.New(nil, fr)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var fault bool
	for _, d := range fr.Dumps() {
		if d.Reason == "fault" && d.Slot == 5000 && len(d.Sensors) == 1 && d.Sensors[0].Sensor == 1 {
			fault = true
		}
	}
	if !fault {
		t.Fatalf("no fault dump for sensor 1 at slot 5000; dumps: %+v", fr.Dumps())
	}
}

// TestTraceOutageDump: a starved battery must trigger the
// miss-after-outage dump.
func TestTraceOutageDump(t *testing.T) {
	cfg := engineCaseConfig(t, "reference-starved")
	fr := trace.NewFlightRecorder(32)
	cfg.Tracer = trace.New(nil, fr)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = true
	cfg.Tracer = nil
	check, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if check.Metrics.MissNoEnergy == 0 {
		t.Skip("starved config saw no energy-gated miss")
	}
	var outage bool
	for _, d := range fr.Dumps() {
		if d.Reason == "outage_miss" {
			outage = true
		}
	}
	if !outage {
		t.Fatalf("energy-gated misses occurred (%d) but no outage dump fired (result %+v)",
			check.Metrics.MissNoEnergy, res)
	}
}
