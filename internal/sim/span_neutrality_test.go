package sim

import (
	"reflect"
	"testing"

	"eventcap/internal/obs"
)

// TestSpansDoNotChangeResults is the RNG-neutrality contract of
// Config.Span (DESIGN.md §9): attaching the phase tracer must leave
// every Result field byte-identical on every execution path — spans
// never draw from a random stream.
func TestSpansDoNotChangeResults(t *testing.T) {
	for _, ec := range engineCases(t) {
		name, cfg := ec.name, ec.cfg
		cfg.Span = nil
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		root := obs.BeginSpan("test." + name)
		cfg.Span = root
		got, err := Run(cfg)
		root.End()
		if err != nil {
			t.Fatalf("%s (instrumented): %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: span instrumentation changed the run:\nwith    %+v\nwithout %+v", name, got, want)
		}

		// The instrumentation must actually have recorded phases.
		if ph := root.Breakdown(); len(ph.Phases) == 0 {
			t.Errorf("%s: no phases recorded under the run span", name)
		}
	}
}
