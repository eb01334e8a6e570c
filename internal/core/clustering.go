package core

import (
	"fmt"
	"math"
	"sort"

	"eventcap/internal/dist"
	"eventcap/internal/numeric"
	"eventcap/internal/obs"
)

// ClusteringPolicy is the paper's heuristic partial-information policy
// π'_PI (Eq. (11)):
//
//	(0, …, 0, C1, 1, …, 1, C2, 0, …, 0, C3, 1, 1, …)
//	 cooling   └── hot ──┘   cooling     └ recovery ┘
//
// States are "slots since the last captured event". N1..N2 is the hot
// region (activate where the hazard concentrates), N2+1..N3−1 the second
// cooling region, and from N3 on the sensor activates aggressively until
// a capture renews the schedule. C1, C2, C3 are the fractional boundary
// probabilities the paper introduces to meet the energy balance exactly.
type ClusteringPolicy struct {
	N1, N2, N3 int
	C1, C2, C3 float64
}

// Validate checks region ordering and probability ranges.
func (cp ClusteringPolicy) Validate() error {
	if cp.N1 < 1 || cp.N2 < cp.N1 || cp.N3 <= cp.N2 {
		return fmt.Errorf("core: clustering regions must satisfy 1 <= N1 <= N2 < N3, got (%d, %d, %d)", cp.N1, cp.N2, cp.N3)
	}
	for _, c := range []float64{cp.C1, cp.C2, cp.C3} {
		if !validProb(c) {
			return fmt.Errorf("core: clustering boundary probability %g out of [0,1]", c)
		}
	}
	return nil
}

// valid reports whether Validate accepts cp, without building the error:
// the region searches test thousands of candidates and only need the
// answer.
func (cp ClusteringPolicy) valid() bool {
	return cp.N1 >= 1 && cp.N2 >= cp.N1 && cp.N3 > cp.N2 &&
		validProb(cp.C1) && validProb(cp.C2) && validProb(cp.C3)
}

// validProb reports whether c is a probability; NaN is not.
func validProb(c float64) bool { return c >= 0 && c <= 1 }

// At returns the activation probability in state i. Boundary precedence:
// the hot-entry probability C1 wins when N1 == N2.
func (cp ClusteringPolicy) At(i int) float64 {
	switch {
	case i < cp.N1:
		return 0
	case i == cp.N1:
		return cp.C1
	case i < cp.N2:
		return 1
	case i == cp.N2:
		return cp.C2
	case i < cp.N3:
		return 0
	case i == cp.N3:
		return cp.C3
	default:
		return 1
	}
}

// policyFn adapts the policy to the EvaluatePI callback shape.
func (cp ClusteringPolicy) policyFn() func(i int, hazard float64) float64 {
	return func(i int, _ float64) float64 { return cp.At(i) }
}

// Vector materializes the policy as an activation Vector with an
// always-on tail.
func (cp ClusteringPolicy) Vector() Vector {
	prefix := make([]float64, cp.N3)
	for i := 1; i <= cp.N3; i++ {
		prefix[i-1] = cp.At(i)
	}
	return Vector{Prefix: prefix, Tail: 1}
}

// PIEval is the analytic performance of a partial-information policy on
// the f-chain (states = slots since last capture), under the energy
// assumption.
type PIEval struct {
	// CaptureProb is U(π) = y_1·μ (Section IV-B2).
	CaptureProb float64
	// EnergyRate is E_out(π) = Σ y_i c_i (δ1 + β̂_i δ2) per slot.
	EnergyRate float64
	// ExpectedCycle is 1/y_1, the mean number of slots between captures.
	ExpectedCycle float64
	// Horizon is the number of f-states walked: up to the state where
	// the no-capture probability became negligible, or, in a solver
	// evaluation of a clustering policy, at most N3, after which its
	// always-on tail is closed without a walk (piEvaluator.closeTail).
	Horizon int
}

// evaluation knobs for the f-chain sum.
const (
	piSurvivalTol = 1e-13
	piMaxHorizon  = 300000
)

// ErrNoRenewal is returned when a partial-information policy never
// captures (e.g. it never activates), so its f-chain has no stationary
// distribution.
var ErrNoRenewal = fmt.Errorf("core: policy never renews (no captures within horizon)")

// EvaluatePI computes the exact f-chain performance of an arbitrary
// partial-information activation rule pol: called once per f-state i in
// increasing order with the state's hazard β̂_i, it returns the activation
// probability c_i (stateless policies ignore the hazard; the belief-
// threshold policy is defined by it). The evaluation propagates the
// no-capture survival S_i = Π(1 − c_j β̂_j) together with the age belief,
// using the product-form stationary distribution y_i = y_1·S_{i−1}:
//
//	U = μ / Σ_i S_{i−1},   E_out = Σ_i S_{i−1}·c_i(δ1 + β̂_i δ2) / Σ_i S_{i−1}.
//
// μ is the mean of the law the belief filter models, whose ages past
// its support cap keep the cap's hazard, so the always-on policy
// evaluates to U = 1.
func EvaluatePI(d dist.Interarrival, p Params, pol func(i int, hazard float64) float64) (*PIEval, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ev, err := newPIEvaluator(d, p).evaluate(pol, 0, nil)
	if err != nil {
		return nil, err
	}
	return &ev, nil
}

// piWalk is an f-chain walk after its first horizon f-states: the belief
// filter's posterior, the no-capture survival, the compensated cycle and
// energy sums, and whether the walk has ended (the survival fell below
// piSurvivalTol, so no later state adds anything). A copy continued
// under a policy performs exactly the operations, in exactly the order,
// of a fresh walk of that policy, as long as the policy acts in f-states
// 1..horizon as the copied walk's did. So any walk is a checkpoint that
// such a policy's evaluation may resume from, bit for bit, and a fresh
// walk is the resume from state 0.
type piWalk struct {
	filter        *BeliefFilter
	survival      float64
	cycle, energy numeric.KahanSum
	horizon       int
	ended         bool
}

// reset rewinds the walk to state 0.
func (w *piWalk) reset() {
	w.filter.Reset()
	w.survival = 1
	w.cycle, w.energy = numeric.KahanSum{}, numeric.KahanSum{}
	w.horizon, w.ended = 0, false
}

// copyFrom overwrites w with v's state, reusing w's filter buffers.
func (w *piWalk) copyFrom(v *piWalk) {
	w.filter.copyFrom(v.filter)
	w.survival, w.cycle, w.energy = v.survival, v.cycle, v.energy
	w.horizon, w.ended = v.horizon, v.ended
}

// advance walks f-states horizon+1..last under pol, or fewer if the walk
// ends first (see EvaluatePI).
func (w *piWalk) advance(p Params, pol func(i int, hazard float64) float64, last int) {
	if w.ended {
		return
	}
	filter, survival, cycle, energy, horizon := w.filter, w.survival, w.cycle, w.energy, w.horizon
	for i := horizon + 1; i <= last; i++ {
		hazard := filter.EventProb()
		c := pol(i, hazard)
		if c < 0 {
			c = 0
		}
		if c > 1 {
			c = 1
		}
		cycle.Add(survival)
		if c > 0 {
			energy.Add(survival * c * (p.Delta1 + p.Delta2*hazard))
		}
		survival *= 1 - c*hazard
		horizon = i
		if survival < piSurvivalTol {
			// floateq:ok an always-on state is the exact constant 1
			if c == 1 {
				// Close the always-on tail at the current hazard
				// (Σ_k S(1−β̂)^k = S/β̂). It is exact once the belief
				// has parked in the elder bucket, where a heavy tail
				// would otherwise leave ~1e-12 of the cycle uncounted
				// and push U above 1.
				cycle.Add(survival / hazard)
				energy.Add(survival * (p.Delta1 + p.Delta2*hazard) / hazard)
			}
			w.ended = true
			break
		}
		filter.AdvanceNoCapture(c)
	}
	w.survival, w.cycle, w.energy, w.horizon = survival, cycle, energy, horizon
}

// piEvaluator evaluates partial-information policies for one distribution
// and energy model. A region search makes thousands of evaluations, so one
// evaluator serves a whole search, or a base search and its gap-capped
// twin: it builds the hazard and residual-life tables and the belief
// buffers once and rewinds them for every chain, and it memoizes
// clustering-policy evaluations, which the hill-climb and the boundary
// searches revisit. A clustering evaluation resumes from the walk of a
// policy it shares a prefix with (resume).
type piEvaluator struct {
	mu   float64 // mean of the law the filters model (hazardTableMean)
	p    Params
	hz   []float64 // hazardTable of the law, shared by every filter; read-only
	life []ageTail // residualLifeTable(hz), built by the first closeTail; read-only

	// The memo of clustering-policy evaluations: deterministic region
	// policies, most of what the searches evaluate, under their packed
	// bounds (regionKey), and the others under the whole policy.
	memo     map[uint64]piMemo
	fracMemo map[ClusteringPolicy]piMemo

	// walk is the evaluation being made. trunk is a walk of trunkOf, the
	// policy the current evaluations are neighbours of, advanced only as
	// far as a resume has asked for (checkpoint).
	walk, trunk piWalk
	trunkOf     ClusteringPolicy

	filters []*BeliefFilter // every filter the evaluator made, for the step count
	spare   []*BeliefFilter // filters no walk or cursor is using

	// Work counters, published once per evaluator by publish (the belief
	// updates are counted by the filters).
	evaluations int64 // evaluate walks (memo hits excluded)
	fallbacks   int64 // boundary searches that fell back to bisection
}

// piMemo is a memoized evaluation in 24 bytes. A hit recomputes U as
// μ/cycle, the division evaluate made, and a zero cycle stands for
// ErrNoRenewal, the only error evaluate returns (a renewing cycle is
// positive).
type piMemo struct {
	cycle, rate float64
	horizon     int
}

func (m piMemo) eval(mu float64) (PIEval, error) {
	if m.cycle == 0 {
		return PIEval{}, ErrNoRenewal
	}
	return PIEval{CaptureProb: mu / m.cycle, EnergyRate: m.rate, ExpectedCycle: m.cycle, Horizon: m.horizon}, nil
}

// regionKey packs a deterministic region policy's bounds into one word,
// 21 bits each; ok is false for other policies and for bounds that do not
// fit (no search reaches 2^21 states).
func regionKey(cp ClusteringPolicy) (key uint64, ok bool) {
	const bits, limit = 21, 1 << 21
	// floateq:ok deterministic regions set C1 = C2 = C3 to the exact constant 1
	if cp.C1 != 1 || cp.C2 != 1 || cp.C3 != 1 ||
		cp.N1 < 0 || cp.N2 < 0 || cp.N3 < 0 || cp.N1 >= limit || cp.N2 >= limit || cp.N3 >= limit {
		return 0, false
	}
	return uint64(cp.N1) | uint64(cp.N2)<<bits | uint64(cp.N3)<<(2*bits), true
}

func newPIEvaluator(d dist.Interarrival, p Params) *piEvaluator {
	hz := hazardTable(d)
	pe := &piEvaluator{
		mu:       hazardTableMean(hz),
		p:        p,
		hz:       hz,
		memo:     make(map[uint64]piMemo),
		fracMemo: make(map[ClusteringPolicy]piMemo),
	}
	pe.walk.filter = pe.newFilter()
	return pe
}

// newFilter returns a fresh-capture filter over the evaluator's hazard
// table whose updates publish counts.
func (pe *piEvaluator) newFilter() *BeliefFilter {
	f := newBeliefFilter(pe.hz)
	pe.filters = append(pe.filters, f)
	return f
}

// spareFilter returns a filter no walk or cursor is using, in any state,
// or a new one.
func (pe *piEvaluator) spareFilter() *BeliefFilter {
	n := len(pe.spare)
	if n == 0 {
		return pe.newFilter()
	}
	f := pe.spare[n-1]
	pe.spare = pe.spare[:n-1]
	return f
}

// clustering is EvaluatePI for a clustering policy, memoized.
func (pe *piEvaluator) clustering(cp ClusteringPolicy) (PIEval, error) {
	return pe.resume(cp, cp, 0)
}

// resume is clustering(cp), resumed from the walk of trunk after its
// first t f-states (checkpoint) when cp is not memoized. cp must act in
// f-states 1..t as trunk does; the result is then the fresh walk's, bit
// for bit.
func (pe *piEvaluator) resume(cp, trunk ClusteringPolicy, t int) (PIEval, error) {
	key, region := regionKey(cp)
	var m piMemo
	var hit bool
	if region {
		m, hit = pe.memo[key]
	} else {
		m, hit = pe.fracMemo[cp]
	}
	if hit {
		return m.eval(pe.mu)
	}
	var from *piWalk
	if t > 0 {
		from = pe.checkpoint(trunk, t)
	}
	ev, err := pe.evaluate(cp.policyFn(), cp.N3, from)
	if testHookResume != nil {
		testHookResume(cp, t, ev, err)
	}
	m = piMemo{ev.ExpectedCycle, ev.EnergyRate, ev.Horizon}
	if region {
		pe.memo[key] = m
	} else {
		pe.fracMemo[cp] = m
	}
	return ev, err
}

// testHookResume, when set, sees every clustering evaluation the
// evaluators walk, with the number of f-states it resumed after. Tests
// use it to check each against a fresh walk.
var testHookResume func(cp ClusteringPolicy, from int, ev PIEval, err error)

// checkpoint returns the walk of trunk after its first t f-states (or
// fewer, when it ended earlier). The trunk walk only moves forward: it is
// restarted for a new trunk or an earlier t, so the searches ask for their
// checkpoints of one trunk in increasing order.
func (pe *piEvaluator) checkpoint(trunk ClusteringPolicy, t int) *piWalk {
	w := &pe.trunk
	if w.filter == nil {
		w.filter = pe.spareFilter()
	}
	if trunk != pe.trunkOf || w.horizon > t {
		w.reset()
		pe.trunkOf = trunk
	}
	w.advance(pe.p, trunk.policyFn(), t)
	return w
}

// publish adds the evaluator's work counters to the process-wide
// metrics.
func (pe *piEvaluator) publish() {
	obs.CorePIEvaluations.Add(pe.evaluations)
	obs.CorePIBudgetFallbacks.Add(pe.fallbacks)
	var steps int64
	for _, f := range pe.filters {
		steps += f.steps
	}
	obs.CorePIBeliefSteps.Add(steps)
}

// evaluate walks pol's f-chain (see EvaluatePI) from the checkpoint from,
// or from state 0 when from is nil. When onAfter > 0, pol is 1 at every
// state past onAfter: the walk stops after that state and closes the
// always-on tail in one pass over the belief (closeTail).
func (pe *piEvaluator) evaluate(pol func(i int, hazard float64) float64, onAfter int, from *piWalk) (PIEval, error) {
	pe.evaluations++
	w := &pe.walk
	if from == nil {
		w.reset()
	} else {
		w.copyFrom(from)
	}
	last := piMaxHorizon
	if onAfter > 0 {
		last = onAfter
	}
	w.advance(pe.p, pol, last)
	cycle, energy, survival := w.cycle, w.energy, w.survival
	if onAfter > 0 {
		tail, tailEnergy, never := pe.closeTail(w.filter, survival)
		cycle.Add(tail)
		energy.Add(tailEnergy)
		survival = never
	}
	if survival >= 1e-6 {
		return PIEval{}, ErrNoRenewal
	}
	total := cycle.Value()
	if !(total > 0) {
		return PIEval{}, ErrNoRenewal
	}
	return PIEval{
		CaptureProb:   pe.mu / total,
		EnergyRate:    energy.Value() / total,
		ExpectedCycle: total,
		Horizon:       w.horizon,
	}, nil
}

// closeTail sums the rest of an f-chain that is always on from the
// filter's current f-state on, reached with no-capture survival S, in one
// pass over the live ages instead of a walk. With c = 1 no missed event
// resets the age, so the unnormalized belief u_k = S_k·b_k evolves
// linearly (u_{k+1}(j+1) = u_k(j)(1 − β_j)), and summing the survivals
// S_k of the paths that renew gives the tail's cycle sum
//
//	Σ_k S_k = S·Σ_j b_j R_j
//
// with R the residual-life table. Those paths are counted once each in
// Σ_k S_k·β̂_k = S − never, where never = S·Σ_j b_j N_j is the survival
// that no event ever ends, so the energy sum is δ1·Σ_k S_k + δ2·(S −
// never). never is left out of both; the caller rejects the policy when
// it is not negligible, as a walk that never renews is rejected. A
// survival below piSurvivalTol adds nothing, as it ends a walk.
func (pe *piEvaluator) closeTail(f *BeliefFilter, survival float64) (cycle, energy, never float64) {
	if survival < piSurvivalTol {
		return 0, 0, 0
	}
	if pe.life == nil {
		pe.life = residualLifeTable(pe.hz)
	}
	life, lost := f.residualLife(pe.life)
	cycle, never = survival*life, survival*lost
	return cycle, pe.p.Delta1*cycle + pe.p.Delta2*(survival-never), never
}

// piCursor is an incremental form of EvaluatePI used by the coarse region
// search: it walks f-states one at a time, so one shared prefix serves
// every candidate that extends it, each closed by closeTail. Plain float64
// sums are sufficient at these horizons (≤ ~10^4 terms in [0, 40]).
type piCursor struct {
	filter        *BeliefFilter
	p             Params
	survival      float64
	cycle, energy float64
	at            int // f-states stepped
}

// cursor returns a cursor at state 0 that walks on the filter f.
func (pe *piEvaluator) cursor(f *BeliefFilter) *piCursor {
	f.Reset()
	return &piCursor{filter: f, p: pe.p, survival: 1}
}

// copyFrom overwrites c with d's state, reusing c's filter buffers.
func (c *piCursor) copyFrom(d *piCursor) {
	c.filter.copyFrom(d.filter)
	c.survival, c.cycle, c.energy, c.at = d.survival, d.cycle, d.energy, d.at
}

// done reports that the no-capture probability is negligible: further
// states contribute nothing.
func (c *piCursor) done() bool { return c.survival < piSurvivalTol }

// step advances one f-state with activation probability prob.
func (c *piCursor) step(prob float64) {
	c.at++
	if c.done() {
		return
	}
	hazard := c.filter.EventProb()
	c.cycle += c.survival
	if prob > 0 {
		c.energy += c.survival * prob * (c.p.Delta1 + c.p.Delta2*hazard)
	}
	c.survival *= 1 - prob*hazard
	if !c.done() {
		c.filter.AdvanceNoCapture(prob)
	}
}

// PIResult is an optimized clustering policy with its analytic
// performance.
type PIResult struct {
	Policy      ClusteringPolicy
	Vector      Vector
	CaptureProb float64
	EnergyRate  float64
	Saturated   bool
}

// ClusteringOptions tunes the region search. The zero value selects
// sensible defaults.
type ClusteringOptions struct {
	// SearchLimit bounds N2 (default: the 0.999 quantile of the
	// inter-arrival distribution, capped at 400).
	SearchLimit int
	// MaxGap bounds N3 − N2 (default 4096).
	MaxGap int
	// CoarsePoints is the number of grid points per region coordinate in
	// the first pass (default 16).
	CoarsePoints int
}

func (o *ClusteringOptions) fill(d dist.Interarrival) {
	if o.SearchLimit <= 0 {
		limit := 1
		for limit < 400 && d.CDF(limit) < 0.999 {
			limit++
		}
		o.SearchLimit = limit
	}
	if o.MaxGap <= 0 {
		o.MaxGap = 4096
	}
	if o.CoarsePoints <= 0 {
		o.CoarsePoints = 16
	}
}

// coarseGrid builds the n1/n2 grid for the coarse pass: an even grid of
// the configured resolution plus hazard landmarks (the first state with
// positive hazard and the hazard peak) that structured distributions such
// as Pareto need to be hit exactly.
func coarseGrid(d dist.Interarrival, limit, step int) []int {
	seen := make(map[int]bool, limit/step+8)
	var points []int
	add := func(i int) {
		if i >= 1 && i <= limit && !seen[i] {
			seen[i] = true
			points = append(points, i)
		}
	}
	for i := 1; i <= limit; i += step {
		add(i)
	}
	firstPositive, peakIdx := 0, 1
	peakVal := -1.0
	for i := 1; i <= limit; i++ {
		h := d.Hazard(i)
		if firstPositive == 0 && h > 1e-12 {
			firstPositive = i
		}
		if h > peakVal {
			peakIdx, peakVal = i, h
		}
	}
	if firstPositive > 0 {
		add(firstPositive)
		add(firstPositive + 1)
	}
	add(peakIdx)
	sort.Ints(points)
	return points
}

// testHookCoarse, when set, sees every candidate the coarse pass scores
// with its (U, E_out). Tests use it to check the pass against the
// evaluation of the same policy.
var testHookCoarse func(cp ClusteringPolicy, u, eout float64)

// OptimizeClustering computes π'_PI(e): it searches the (N1, N2, N3)
// region structure by coarse enumeration ("increase n3 gradually and
// enumerate n1 and n2", Section IV-B2) followed by hill-climbing
// refinement, then spends any residual energy budget on the fractional
// boundary probabilities C1/C2/C3 (maxBoundaryProb).
func OptimizeClustering(d dist.Interarrival, e float64, p Params, opts ClusteringOptions) (*PIResult, error) {
	res, pe, err := optimizeClustering(d, e, p, opts)
	if pe != nil {
		pe.publish()
	}
	return res, err
}

// optimizeClustering is OptimizeClustering without publishing: it returns
// the evaluator it searched with (nil when no search ran) so that a
// gap-capped search can continue on it (clusteringPair).
func optimizeClustering(d dist.Interarrival, e float64, p Params, opts ClusteringOptions) (*PIResult, *piEvaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if e < 0 || math.IsNaN(e) {
		return nil, nil, fmt.Errorf("core: recharge rate must be >= 0, got %g", e)
	}
	mu := d.Mean()
	if e >= p.SaturationRate(mu) {
		// The sensor can afford to be always on: every event is captured.
		cp := ClusteringPolicy{N1: 1, N2: 1, N3: 2, C1: 1, C2: 1, C3: 1}
		return &PIResult{
			Policy:      cp,
			Vector:      Vector{Tail: 1},
			CaptureProb: 1,
			EnergyRate:  p.SaturationRate(mu),
			Saturated:   true,
		}, nil, nil
	}
	pe := newPIEvaluator(d, p)
	res, err := pe.optimize(d, e, opts)
	return res, pe, err
}

// scoredPolicy is a region-search candidate with its U.
type scoredPolicy struct {
	cp ClusteringPolicy
	u  float64
}

// optimize is the region search of OptimizeClustering on pe at a rate e
// below saturation.
func (pe *piEvaluator) optimize(d dist.Interarrival, e float64, opts ClusteringOptions) (*PIResult, error) {
	opts.fill(d)
	budget := e*(1+1e-9) + 1e-12
	feasible := func(ev PIEval, err error) (PIEval, bool) {
		return ev, err == nil && ev.EnergyRate <= budget
	}

	best := scoredPolicy{u: -1}
	consider := func(cp ClusteringPolicy) {
		if !cp.valid() {
			return
		}
		if cp.N3-cp.N2 > opts.MaxGap {
			return
		}
		if ev, ok := feasible(pe.clustering(cp)); ok && ev.CaptureProb > best.u {
			best = scoredPolicy{cp: cp, u: ev.CaptureProb}
		}
	}

	// Coarse pass over deterministic regions (C1 = C2 = C3 = 1). One
	// cursor extends the cooling prefix along n1 and a copy of it the hot
	// region along n2; every gap candidate of an (n1, n2) walks on a copy
	// of that hot prefix, and each candidate's recovery tail is closed
	// from the cursor's belief, so the pass costs O(hot + MaxGap) belief
	// updates per (n1, n2) rather than re-walking the chain. Several
	// diverse leaders are kept and hill-climbed separately: the grid can
	// put structurally different shapes (recovery-only vs hot-window)
	// within a step of each other.
	limit := opts.SearchLimit
	step := limit / opts.CoarsePoints
	if step < 1 {
		step = 1
	}
	const maxLeaders = 4
	var leaders []scoredPolicy
	offer := func(c scoredPolicy) {
		// Replace the worst leader from the same n1 neighborhood, or
		// append/displace the weakest when diverse.
		for i := range leaders {
			near := c.cp.N1-leaders[i].cp.N1 <= step && leaders[i].cp.N1-c.cp.N1 <= step
			if near {
				if c.u > leaders[i].u {
					leaders[i] = c
				}
				return
			}
		}
		if len(leaders) < maxLeaders {
			leaders = append(leaders, c)
			return
		}
		worst := 0
		for i := range leaders {
			if leaders[i].u < leaders[worst].u {
				worst = i
			}
		}
		if c.u > leaders[worst].u {
			leaders[worst] = c
		}
	}
	gridPoints := coarseGrid(d, limit, step)
	var gaps []int
	for g := 1; g <= opts.MaxGap; g *= 2 {
		gaps = append(gaps, g)
	}
	// No evaluation runs during the pass: the cooling cursor walks on
	// the evaluation walk's filter, which evaluate rewinds, and the
	// other two on spares, returned when the pass ends. An incumbent's
	// walk left by an earlier search on this evaluator gives its filter
	// back first; the next checkpoint starts a new one.
	if pe.trunk.filter != nil {
		pe.spare = append(pe.spare, pe.trunk.filter)
		pe.trunk, pe.trunkOf = piWalk{}, ClusteringPolicy{}
	}
	cool, hot, cur := pe.cursor(pe.walk.filter), pe.cursor(pe.spareFilter()), pe.cursor(pe.spareFilter())
	for _, n1 := range gridPoints {
		for cool.at < n1-1 {
			cool.step(0)
		}
		hot.copyFrom(cool)
		for _, n2 := range gridPoints {
			if n2 < n1 {
				continue
			}
			for hot.at < n2 {
				hot.step(1)
			}
			cur.copyFrom(hot)
			walked := 0
			for _, g := range gaps {
				for ; walked < g-1; walked++ {
					cur.step(0)
				}
				tail, tailEnergy, never := pe.closeTail(cur.filter, cur.survival)
				if never >= 1e-6 {
					continue // the evaluation's ErrNoRenewal
				}
				cycle := cur.cycle + tail
				u, eout := pe.mu/cycle, (cur.energy+tailEnergy)/cycle
				cp := ClusteringPolicy{N1: n1, N2: n2, N3: n2 + g, C1: 1, C2: 1, C3: 1}
				if testHookCoarse != nil {
					testHookCoarse(cp, u, eout)
				}
				if eout <= budget {
					// Widening the gap only lengthens the cycle, lowering
					// both U and E_out, so the first feasible gap is the
					// best one for this hot region.
					offer(scoredPolicy{cp: cp, u: u})
					break
				}
			}
		}
	}
	pe.spare = append(pe.spare, hot.filter, cur.filter)
	for _, l := range leaders {
		if l.u > best.u {
			best = l
		}
	}
	if best.u < 0 {
		// Nothing feasible even with maximal cooling: fall back to a
		// pure recovery policy starting as late as the search allows.
		consider(ClusteringPolicy{N1: 1, N2: 1, N3: 1 + opts.MaxGap, C1: 0, C2: 0, C3: 1})
		if best.u < 0 {
			return nil, fmt.Errorf("core: no feasible clustering policy at e=%g for %s (try a larger MaxGap)", e, d.Name())
		}
	}

	// Hill-climbing refinement with shrinking steps, starting from every
	// coarse leader; `consider` keeps the global best across all climbs.
	for _, start := range leaders {
		local := start
		for s := step; s >= 1; s /= 2 {
			improved := true
			for improved {
				improved = false
				cur := local.cp
				for _, nb := range climbNeighbors(cur, s) {
					if !nb.cp.valid() || nb.cp.N3-nb.cp.N2 > opts.MaxGap {
						continue // honor the configured cooling-gap bound
					}
					if ev, ok := feasible(pe.resume(nb.cp, cur, nb.from)); ok && ev.CaptureProb > local.u+1e-12 {
						local = scoredPolicy{cp: nb.cp, u: ev.CaptureProb}
						improved = true
					}
				}
			}
		}
		if local.u > best.u {
			best = local
		}
	}

	// Fractional boundary refinement: spend residual budget via C1/C2/C3.
	best.cp = refineFractional(pe, e, best.cp)
	ev, err := pe.clustering(best.cp)
	if err != nil {
		return nil, fmt.Errorf("evaluating refined clustering policy: %w", err)
	}
	return &PIResult{
		Policy:      best.cp,
		Vector:      best.cp.Vector(),
		CaptureProb: ev.CaptureProb,
		EnergyRate:  ev.EnergyRate,
	}, nil
}

// resumePoint is a policy to evaluate and the number of leading f-states
// in which it acts as the policy it is a variant of (piEvaluator.resume).
type resumePoint struct {
	cp   ClusteringPolicy
	from int
}

// climbNeighbors returns the hill-climb's neighbours of the deterministic
// region policy cur at step s: each region boundary moved s states
// earlier or later (N2 and N3 together, keeping the gap, or N3 alone).
// Each differs from cur from one f-state on and resumes cur's walk just
// before it; the valid ones come in increasing order of that state, so
// one walk of cur serves them all.
func climbNeighbors(cur ClusteringPolicy, s int) [6]resumePoint {
	gap := cur.N3 - cur.N2
	region := func(n1, n2, n3 int) ClusteringPolicy {
		return ClusteringPolicy{N1: n1, N2: n2, N3: n3, C1: 1, C2: 1, C3: 1}
	}
	return [...]resumePoint{
		{region(cur.N1-s, cur.N2, cur.N2+gap), cur.N1 - s - 1},
		{region(cur.N1+s, cur.N2, cur.N2+gap), cur.N1 - 1},
		{region(cur.N1, cur.N2-s, cur.N2-s+gap), cur.N2 - s},
		{region(cur.N1, cur.N2+s, cur.N2+s+gap), cur.N2},
		{region(cur.N1, cur.N2, cur.N3-s), cur.N3 - s - 1},
		{region(cur.N1, cur.N2, cur.N3+s), cur.N3 - 1},
	}
}

// boundaryVariant extends a policy at one region boundary by a state
// activated with probability c (at).
type boundaryVariant struct {
	at   func(c float64) ClusteringPolicy
	ok   bool // the boundary is deterministic and the region has room
	from int  // the f-states every variant shares with the policy
}

// boundaryVariants returns the fractional pass's variants of cur: the hot
// region widened one state earlier (C1) or later (C2), and recovery
// started one state earlier (C3). They come in increasing order of from.
func boundaryVariants(cur ClusteringPolicy) [3]boundaryVariant {
	return [...]boundaryVariant{
		{
			at: func(c float64) ClusteringPolicy {
				v := cur
				v.N1--
				v.C1 = c
				return v
			},
			// floateq:ok region-boundary saturation: C1 is set to the exact constant 1
			ok:   cur.N1 > 1 && cur.C1 == 1,
			from: cur.N1 - 2,
		},
		{
			at: func(c float64) ClusteringPolicy {
				v := cur
				v.N2++
				v.C2 = c
				return v
			},
			// floateq:ok region-boundary saturation: C2 is set to the exact constant 1
			ok:   cur.N2+1 < cur.N3 && cur.C2 == 1,
			from: cur.N2,
		},
		{
			at: func(c float64) ClusteringPolicy {
				v := cur
				v.N3--
				v.C3 = c
				return v
			},
			// floateq:ok region-boundary saturation: C3 is set to the exact constant 1
			ok:   cur.N3-1 > cur.N2 && cur.C3 == 1,
			from: cur.N3 - 2,
		},
	}
}

// clusteringPair runs a base region search and then gap-capped searches
// on the base's evaluator, whose memo their evaluations share. Every
// search returns what OptimizeClustering returns for its options, bit for
// bit.
type clusteringPair struct {
	d  dist.Interarrival
	e  float64
	p  Params
	pe *piEvaluator // nil until the base search ran one (none when saturated)
}

// base runs the base search.
func (pr *clusteringPair) base(opts ClusteringOptions) (*PIResult, error) {
	res, pe, err := optimizeClustering(pr.d, pr.e, pr.p, opts)
	pr.pe = pe
	return res, err
}

// capped runs a further search after base.
func (pr *clusteringPair) capped(opts ClusteringOptions) (*PIResult, error) {
	if pr.pe == nil {
		return OptimizeClustering(pr.d, pr.e, pr.p, opts)
	}
	return pr.pe.optimize(pr.d, pr.e, opts)
}

// publish publishes the shared evaluator's counters, once.
func (pr *clusteringPair) publish() {
	if pr.pe != nil {
		pr.pe.publish()
		pr.pe = nil
	}
}

// refineFractional greedily extends the best deterministic region policy
// with fractional boundary probabilities: widening the hot region at
// either edge or starting recovery one slot earlier, each scaled by
// maxBoundaryProb so E_out stays within e. Capture probability is
// nondecreasing in every activation probability (more activation
// shortens renewal cycles), so the largest feasible boundary value is
// the best one. Each variant differs from the current policy from one
// f-state on, and its evaluations resume the current policy's walk just
// before that state.
func refineFractional(pe *piEvaluator, e float64, cp ClusteringPolicy) ClusteringPolicy {
	baseU := func(ev PIEval, err error) float64 {
		if err != nil || ev.EnergyRate > e*(1+1e-9)+1e-12 {
			return -1
		}
		return ev.CaptureProb
	}
	cur := cp
	curU := baseU(pe.clustering(cur))
	for round := 0; round < 3; round++ {
		bestVar := scoredPolicy{u: curU}
		for _, v := range boundaryVariants(cur) {
			if !v.ok {
				continue
			}
			eval := func(c float64) (PIEval, error) { return pe.resume(v.at(c), cur, v.from) }
			c, feasible := pe.maxBoundaryProb(eval, e*(1+1e-9)+1e-12)
			if !feasible || c <= 1e-9 {
				continue
			}
			vp := v.at(c)
			if !vp.valid() {
				continue
			}
			if u := baseU(eval(c)); u > bestVar.u+1e-12 {
				bestVar = scoredPolicy{cp: vp, u: u}
			}
		}
		if bestVar.u <= curU+1e-12 {
			break
		}
		cur, curU = bestVar.cp, bestVar.u
	}
	return cur
}

// budgetTol is the resolution of the boundary-probability searches.
// numeric.MaximizeMonotoneBudget halves [0, 1] until the bracket is at
// most budgetTol wide: 20 halvings, which leave it on the grid of
// multiples of budgetGrid = 2^-20.
const (
	budgetTol  = 1e-6
	budgetGrid = 1.0 / (1 << 20)
)

// testHookBoundary, when set, sees every boundary search with its result.
// Tests use it to check each search against the bisection.
var testHookBoundary func(eval func(c float64) (PIEval, error), budget, c float64, feasible bool)

// maxBoundaryProb returns the largest boundary probability c whose
// evaluation eval(c) keeps E_out within budget:
// numeric.MaximizeMonotoneBudget(cost, budget, budgetTol) with cost(c)
// the EnergyRate of eval(c) (+Inf when eval fails), in four evaluations
// instead of 22.
//
// With every other activation fixed, one boundary probability enters
// one transition of the f-chain affinely, so under the product form
// y_i = y_1·S_{i−1} the cycle sum C = ExpectedCycle and the energy sum
// E = EnergyRate·C are affine in c. The budget crossing E(c) = b·C(c)
// then follows from the evaluations at c = 0 and c = 1:
//
//	c* = (b·C₀ − E₀) / ((E₁ − E₀) − b·(C₁ − C₀)).
//
// The bisection lands on the grid point g with cost(g) ≤ b < cost(g +
// budgetGrid), unique while cost is nondecreasing on the grid. So c* is
// floored to the grid, and the grid point is returned if it passes that
// test. Otherwise (roundoff at a knife edge, or a cost that is not a
// ratio of affine sums) the bisection runs, and the fallback is counted.
func (pe *piEvaluator) maxBoundaryProb(eval func(c float64) (PIEval, error), budget float64) (c float64, feasible bool) {
	if testHookBoundary != nil {
		defer func() { testHookBoundary(eval, budget, c, feasible) }()
	}
	at := func(c float64) (PIEval, bool, float64) {
		ev, err := eval(c)
		if err != nil {
			return ev, false, math.Inf(1)
		}
		return ev, true, ev.EnergyRate
	}
	ev0, ok0, cost0 := at(0)
	if cost0 > budget {
		return 0, false
	}
	ev1, ok1, cost1 := at(1)
	if cost1 <= budget {
		return 1, true
	}
	// A failed endpoint evaluation leaves no sums to solve from.
	if ok0 && ok1 {
		c0, c1 := ev0.ExpectedCycle, ev1.ExpectedCycle
		e0, e1 := ev0.EnergyRate*c0, ev1.EnergyRate*c1
		cs := (budget*c0 - e0) / ((e1 - e0) - budget*(c1-c0))
		if k := math.Floor(cs / budgetGrid); !math.IsNaN(k) {
			g := min(max(k, 0), 1/budgetGrid-1) * budgetGrid
			lo, hi := cost0, cost1
			if g > 0 {
				_, _, lo = at(g)
			}
			if g+budgetGrid < 1 {
				_, _, hi = at(g + budgetGrid)
			}
			// The bisection keeps lo while cost(lo) <= budget and moves
			// hi otherwise, a NaN cost included.
			if lo <= budget && !(hi <= budget) {
				return g, true
			}
		}
	}
	pe.fallbacks++
	return numeric.MaximizeMonotoneBudget(func(c float64) float64 {
		_, _, cost := at(c)
		return cost
	}, budget, budgetTol)
}
