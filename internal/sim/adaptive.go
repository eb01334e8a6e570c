package sim

import (
	"eventcap/internal/core"
	"eventcap/internal/numeric"
)

// AdaptiveGreedyFI is the unknown-distribution extension of the paper's
// full-information policy: it observes every inter-event gap (full
// information makes gaps visible whether or not the sensor was active),
// maintains an empirical estimate of the inter-arrival distribution, and
// recomputes the Theorem-1 greedy policy from the estimate every
// RecomputeEvery observed events. Until WarmupEvents gaps are seen it
// falls back to a blind energy-balanced coin flip.
type AdaptiveGreedyFI struct {
	// E is the recharge rate to balance against; Params the energy model.
	E      float64
	Params core.Params
	// MaxGap bounds the estimator's support (default 4096).
	MaxGap int
	// RecomputeEvery is the number of observed events between policy
	// recomputations (default 50).
	RecomputeEvery int
	// WarmupEvents is how many gaps to observe before trusting the
	// estimate (default 20).
	WarmupEvents int

	est          *core.GapEstimator
	vec          core.Vector
	havePolicy   bool
	sinceEvent   int
	sinceRefresh int
	warmupProb   float64
	initErr      error
}

var _ Policy = (*AdaptiveGreedyFI)(nil)

// Name implements Policy.
func (a *AdaptiveGreedyFI) Name() string { return "adaptive-greedy-fi" }

func (a *AdaptiveGreedyFI) defaults() {
	if a.MaxGap <= 0 {
		a.MaxGap = 4096
	}
	if a.RecomputeEvery <= 0 {
		a.RecomputeEvery = 50
	}
	if a.WarmupEvents <= 0 {
		a.WarmupEvents = 20
	}
}

// Reset implements Policy.
func (a *AdaptiveGreedyFI) Reset() {
	a.defaults()
	est, err := core.NewGapEstimator(a.MaxGap)
	if err != nil {
		a.initErr = err
		return
	}
	a.est = est
	a.vec = core.Vector{}
	a.havePolicy = false
	a.sinceEvent = 0
	a.sinceRefresh = 0
	// Blind warmup: activate with the probability an energy-balanced
	// memoryless policy could afford if events were "typical" — we do not
	// know μ yet, so use the cheapest safe bound c = e/(δ1+δ2): even if
	// every activation captured an event this underspends.
	a.warmupProb = numeric.Clamp01(a.E / a.Params.ActivationCost())
}

// ActivationProb implements Policy.
func (a *AdaptiveGreedyFI) ActivationProb(s SlotState) float64 {
	if a.initErr != nil || s.SinceEvent < 0 {
		return 0 // misconfigured or not running under full information
	}
	if !a.havePolicy {
		return a.warmupProb
	}
	return a.vec.At(s.SinceEvent)
}

// Observe implements Policy: it counts slots between events and refreshes
// the policy on schedule.
func (a *AdaptiveGreedyFI) Observe(o Outcome) {
	if a.initErr != nil || !o.EventKnown {
		return
	}
	a.sinceEvent++
	if !o.Event {
		return
	}
	a.est.Observe(a.sinceEvent)
	a.sinceEvent = 0
	a.sinceRefresh++
	if a.est.Count() < a.WarmupEvents {
		return
	}
	if a.havePolicy && a.sinceRefresh < a.RecomputeEvery {
		return
	}
	d, err := a.est.Distribution()
	if err != nil {
		return
	}
	fi, err := core.GreedyFI(d, a.E, a.Params)
	if err != nil {
		return
	}
	a.vec = fi.Policy
	a.havePolicy = true
	a.sinceRefresh = 0
}
