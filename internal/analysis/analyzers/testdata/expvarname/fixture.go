// Package fixture exercises the expvarname analyzer: metric names must
// be literals matching the eventcap schema.
package fixture

import (
	"eventcap/internal/obs"
)

func metrics(suffix string) {
	_ = obs.NewCounter("sim.fixture.events")        // schema-conformant: quiet
	_ = obs.NewGauge("pool.fixture_pending")        // underscores allowed: quiet
	_ = obs.NewCounter("Sim.Events")                // want `violates the eventcap schema`
	_ = obs.NewCounter("sim-events")                // want `violates the eventcap schema`
	_ = obs.NewCounter("sim..double")               // want `violates the eventcap schema`
	_ = obs.NewCounter("sim.9starts_with_digit")    // want `violates the eventcap schema`
	_ = obs.NewFloatCounter("sim.fixture.frac_sum") // quiet
	_ = obs.NewCounterVec("sim.fixture.bin", 3)     // quiet
	_ = obs.NewDurationHist("pool.fixture.latency") // quiet
	_ = obs.NewCounter("sim." + suffix)             // want `not a string literal`
	// expvarname:ok fixture demonstrates a justified computed name
	_ = obs.NewCounter("sim." + suffix)

	// Engine-fallback reason counters follow the same dotted schema; the
	// reason slug is the last segment.
	_ = obs.NewCounter("sim.engine.fallback.mode") // quiet
	_ = obs.NewCounter("sim.engine.fallback.Mode") // want `violates the eventcap schema`

	// The phase-span profiler's subsystem is on the allowlist; runs and
	// stats are not, since no live metric registers under them.
	_ = obs.NewCounter("span.fixture_begun")    // quiet
	_ = obs.NewGauge("runs.fixture.active")     // want `unknown subsystem "runs"`
	_ = obs.NewCounter("stats.fixture.reports") // want `unknown subsystem "stats"`
	_ = obs.NewCounter("spans.fixture_begun")   // want `unknown subsystem "spans"`
	_ = obs.NewGauge("run.fixture.active")      // want `unknown subsystem "run"`
	_ = obs.NewCounter("dash.fixture.hits")     // want `unknown subsystem "dash"`
	// expvarname:ok fixture demonstrates a justified one-off subsystem
	_ = obs.NewCounter("scratch.fixture.hits")
}
