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
	cfg.Tracer = w
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return slotRecords(t, buf.Bytes())
}

// slotRecords decodes the slot records of a trace, in trace order.
func slotRecords(t *testing.T, data []byte) []trace.Rec {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(data))
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
// Config.Tracer: attaching a trace writer must leave the Result
// byte-identical, on every execution path that accepts a tracer. A
// traced kernel decides every awake slot alone, so of the Metrics only
// its always-on slot count may differ.
func TestTracingDoesNotChangeResults(t *testing.T) {
	for _, ec := range tracedCases(t) {
		name, cfg := ec.name, ec.cfg
		cfg.Tracer = nil
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w := trace.NewWriter(io.Discard)
		cfg.Tracer = w
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Counts().Records == 0 {
			t.Fatalf("%s: trace captured no records", name)
		}
		got.Metrics.KernelSlotsAlwaysOn = want.Metrics.KernelSlotsAlwaysOn
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: tracing changed the run:\nwith    %+v\nwithout %+v", name, got, want)
		}
	}
}

// TestTraceReplayMatchesResults re-derives each configuration's results
// purely from its trace (trace.Replay) and checks them against the
// engine's own Result and Metrics — the acceptance contract behind
// cmd/tracetool's replay subcommand, here asserted for every execution
// path including a kernel run with compressed sleep spans. Every slot
// record must also hold the state invariants: an activation
// probability in [0, 1] and a battery level in [0, K] (plus rounding
// slack).
func TestTraceReplayMatchesResults(t *testing.T) {
	sawSpans := false
	for _, ec := range tracedCases(t) {
		name, cfg := ec.name, ec.cfg
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		cfg.Tracer = w
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		capHi := cfg.BatteryCap * (1 + 1e-9)
		for _, r := range slotRecords(t, buf.Bytes()) {
			if r.Prob < 0 || r.Prob > 1 || r.Battery < 0 || r.Battery > capHi {
				t.Fatalf("%s: slot %d sensor %d breaks an invariant: prob %v, battery %v of K=%v",
					name, r.Slot, r.Sensor, r.Prob, r.Battery, cfg.BatteryCap)
			}
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
		traced.Tracer = w
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
