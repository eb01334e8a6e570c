package sim

import (
	"reflect"
	"testing"

	"eventcap/internal/obs"
)

// TestSpansDoNotChangeResults is the RNG-neutrality contract of
// Config.Span and Config.Progress (DESIGN.md §9): attaching the phase
// tracer and work accounting must leave every Result field
// byte-identical on every execution path — spans never draw from a
// random stream.
func TestSpansDoNotChangeResults(t *testing.T) {
	for _, ec := range engineCases(t) {
		name, cfg := ec.name, ec.cfg
		cfg.Span = nil
		cfg.Progress = nil
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		root := obs.BeginSpan("test." + name)
		prog := obs.NewProgress()
		cfg.Span = root
		cfg.Progress = prog
		got, err := Run(cfg)
		root.End()
		if err != nil {
			t.Fatalf("%s (instrumented): %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: span/progress instrumentation changed the run:\nwith    %+v\nwithout %+v", name, got, want)
		}

		// The instrumentation must actually have recorded phases ...
		ph := root.Breakdown()
		if len(ph.Phases) == 0 {
			t.Errorf("%s: no phases recorded under the run span", name)
		}
		// ... and the engines must have reported every slot unit of work:
		// Slots × replications × sensors, whatever the execution path.
		n, b := cfg.N, cfg.Batch
		if n < 1 {
			n = 1
		}
		if b < 1 {
			b = 1
		}
		if wd, _ := prog.Work(); wd != cfg.Slots*int64(n)*int64(b) {
			t.Errorf("%s: work done = %d, want %d (T=%d × N=%d × B=%d)",
				name, wd, cfg.Slots*int64(n)*int64(b), cfg.Slots, n, b)
		}
	}
}
