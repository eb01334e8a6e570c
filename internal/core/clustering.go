package core

import (
	"fmt"
	"math"
	"sort"

	"eventcap/internal/dist"
	"eventcap/internal/numeric"
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
		if c < 0 || c > 1 || math.IsNaN(c) {
			return fmt.Errorf("core: clustering boundary probability %g out of [0,1]", c)
		}
	}
	return nil
}

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
	// Horizon is the number of f-states evaluated before the no-capture
	// probability became negligible.
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
	return newPIEvaluator(d, p).evaluate(pol)
}

// piEvaluator evaluates partial-information policies for one distribution
// and energy model. A region search makes thousands of evaluations, so one
// evaluator serves a whole search: it builds the hazard table and the
// belief buffers once and rewinds them for every chain, and it memoizes
// clustering-policy evaluations, which the hill-climb and the boundary
// bisections revisit.
type piEvaluator struct {
	mu     float64 // mean of the law the filter models (hazardTableMean)
	p      Params
	filter *BeliefFilter
	memo   map[ClusteringPolicy]piMemo
}

type piMemo struct {
	ev  *PIEval
	err error
}

func newPIEvaluator(d dist.Interarrival, p Params) *piEvaluator {
	filter := NewBeliefFilter(d)
	return &piEvaluator{
		mu:     hazardTableMean(filter.hz),
		p:      p,
		filter: filter,
		memo:   make(map[ClusteringPolicy]piMemo),
	}
}

// clustering is EvaluatePI for a clustering policy, memoized. The
// returned evaluation is shared and must not be modified.
func (pe *piEvaluator) clustering(cp ClusteringPolicy) (*PIEval, error) {
	if m, ok := pe.memo[cp]; ok {
		return m.ev, m.err
	}
	ev, err := pe.evaluate(cp.policyFn())
	pe.memo[cp] = piMemo{ev, err}
	return ev, err
}

// evaluate walks pol's f-chain (see EvaluatePI).
func (pe *piEvaluator) evaluate(pol func(i int, hazard float64) float64) (*PIEval, error) {
	filter := pe.filter
	filter.Reset()
	survival := 1.0
	var cycle, energy numeric.KahanSum
	horizon := 0
	for i := 1; i <= piMaxHorizon; i++ {
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
			energy.Add(survival * c * (pe.p.Delta1 + pe.p.Delta2*hazard))
		}
		survival *= 1 - c*hazard
		horizon = i
		if survival < piSurvivalTol {
			// floateq:ok an always-on state is the exact constant 1
			if c == 1 {
				// Close the always-on tail at the current hazard
				// (Σ_k S(1−β̂)^k = S/β̂), as finishRecovery does. It is
				// exact once the belief has parked in the elder bucket,
				// where a heavy tail would otherwise leave ~1e-12 of
				// the cycle uncounted and push U above 1.
				cycle.Add(survival / hazard)
				energy.Add(survival * (pe.p.Delta1 + pe.p.Delta2*hazard) / hazard)
			}
			break
		}
		filter.AdvanceNoCapture(c)
	}
	if survival >= 1e-6 {
		return nil, ErrNoRenewal
	}
	total := cycle.Value()
	if !(total > 0) {
		return nil, ErrNoRenewal
	}
	return &PIEval{
		CaptureProb:   pe.mu / total,
		EnergyRate:    energy.Value() / total,
		ExpectedCycle: total,
		Horizon:       horizon,
	}, nil
}

// piCursor is an incremental form of EvaluatePI used by the coarse region
// search: it walks f-states one at a time and can be copied mid-chain, so
// one shared cooling prefix serves every recovery-start candidate. Plain
// float64 sums are sufficient at these horizons (≤ ~10^4 terms in [0, 40]).
type piCursor struct {
	filter        *BeliefFilter
	p             Params
	survival      float64
	cycle, energy float64
}

// cursor returns a fresh cursor over the evaluator's hazard table.
func (pe *piEvaluator) cursor() *piCursor {
	return &piCursor{filter: newBeliefFilter(pe.filter.hz), p: pe.p, survival: 1}
}

// reset rewinds the cursor to the start of the chain.
func (c *piCursor) reset() {
	c.filter.Reset()
	c.survival, c.cycle, c.energy = 1, 0, 0
}

// copyFrom overwrites c with src's state, reusing c's buffers.
func (c *piCursor) copyFrom(src *piCursor) {
	c.filter.copyFrom(src.filter)
	c.p = src.p
	c.survival, c.cycle, c.energy = src.survival, src.cycle, src.energy
}

// done reports that the no-capture probability is negligible: further
// states contribute nothing.
func (c *piCursor) done() bool { return c.survival < piSurvivalTol }

// step advances one f-state with activation probability prob.
func (c *piCursor) step(prob float64) {
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

// finishRecovery runs the always-on tail to exhaustion. The conditioned
// belief converges to a quasi-stationary distribution whose hazard β* is
// constant, so once β̂ stabilizes the remaining geometric tail is closed
// in closed form (Σ_k S(1−β*)^k = S/β*). It reports whether the chain
// renewed (false for defective tails, e.g. truncation artifacts).
func (c *piCursor) finishRecovery() bool {
	prev := -1.0
	stable := 0
	for i := 0; i < piMaxHorizon && !c.done(); i++ {
		h := c.filter.EventProb()
		if prev >= 0 && math.Abs(h-prev) < 1e-4*(h+1e-12) {
			stable++
			if stable >= 2 && h > 1e-9 {
				c.cycle += c.survival / h
				c.energy += c.survival * (c.p.Delta1 + c.p.Delta2*h) / h
				c.survival = 0
				return true
			}
		} else {
			stable = 0
		}
		prev = h
		c.step(1)
	}
	return c.survival < 1e-6
}

// result returns (U, E_out) for the completed chain.
func (c *piCursor) result(mu float64) (u, eout float64) {
	if c.cycle <= 0 {
		return 0, 0
	}
	return mu / c.cycle, c.energy / c.cycle
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

// OptimizeClustering computes π'_PI(e): it searches the (N1, N2, N3)
// region structure by coarse enumeration ("increase n3 gradually and
// enumerate n1 and n2", Section IV-B2) followed by hill-climbing
// refinement, then spends any residual energy budget on the fractional
// boundary probabilities C1/C2/C3 by bisection.
func OptimizeClustering(d dist.Interarrival, e float64, p Params, opts ClusteringOptions) (*PIResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if e < 0 || math.IsNaN(e) {
		return nil, fmt.Errorf("core: recharge rate must be >= 0, got %g", e)
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
		}, nil
	}
	opts.fill(d)

	pe := newPIEvaluator(d, p)
	eval := func(cp ClusteringPolicy) (*PIEval, bool) {
		ev, err := pe.clustering(cp)
		if err != nil {
			return nil, false
		}
		return ev, ev.EnergyRate <= e*(1+1e-9)+1e-12
	}

	type candidate struct {
		cp ClusteringPolicy
		u  float64
	}
	best := candidate{u: -1}
	consider := func(cp ClusteringPolicy) {
		if cp.Validate() != nil {
			return
		}
		if cp.N3-cp.N2 > opts.MaxGap {
			return
		}
		if ev, ok := eval(cp); ok && ev.CaptureProb > best.u {
			best = candidate{cp: cp, u: ev.CaptureProb}
		}
	}

	// Coarse pass over deterministic regions (C1 = C2 = C3 = 1). For each
	// hot region the cooling prefix is shared across all gap candidates
	// via an incremental cursor, so the pass costs O(hot + MaxGap +
	// gaps·recovery) per (n1, n2) rather than re-walking the chain.
	// Several diverse leaders are kept and hill-climbed separately: the
	// grid can put structurally different shapes (recovery-only vs
	// hot-window) within a step of each other.
	limit := opts.SearchLimit
	step := limit / opts.CoarsePoints
	if step < 1 {
		step = 1
	}
	gridPoints := coarseGrid(d, limit, step)
	var gaps []int
	for g := 1; g <= opts.MaxGap; g *= 2 {
		gaps = append(gaps, g)
	}
	const maxLeaders = 4
	var leaders []candidate
	offer := func(c candidate) {
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
	cur, branch := pe.cursor(), pe.cursor()
	for _, n1 := range gridPoints {
		for _, n2 := range gridPoints {
			if n2 < n1 {
				continue
			}
			cur.reset()
			for i := 1; i <= n2; i++ {
				c := 0.0
				if i >= n1 {
					c = 1
				}
				cur.step(c)
			}
			walked := 0
			for _, g := range gaps {
				for ; walked < g-1; walked++ {
					cur.step(0)
				}
				branch.copyFrom(cur)
				if !branch.finishRecovery() {
					continue
				}
				u, eout := branch.result(pe.mu)
				if eout <= e*(1+1e-9)+1e-12 {
					// Widening the gap only lengthens the cycle, lowering
					// both U and E_out, so the first feasible gap is the
					// best one for this hot region.
					offer(candidate{
						cp: ClusteringPolicy{N1: n1, N2: n2, N3: n2 + g, C1: 1, C2: 1, C3: 1},
						u:  u,
					})
					break
				}
			}
		}
	}
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
				gap := cur.N3 - cur.N2
				neighbors := []ClusteringPolicy{
					{N1: cur.N1 - s, N2: cur.N2, N3: cur.N2 + gap, C1: 1, C2: 1, C3: 1},
					{N1: cur.N1 + s, N2: cur.N2, N3: cur.N2 + gap, C1: 1, C2: 1, C3: 1},
					{N1: cur.N1, N2: cur.N2 - s, N3: cur.N2 - s + gap, C1: 1, C2: 1, C3: 1},
					{N1: cur.N1, N2: cur.N2 + s, N3: cur.N2 + s + gap, C1: 1, C2: 1, C3: 1},
					{N1: cur.N1, N2: cur.N2, N3: cur.N3 - s, C1: 1, C2: 1, C3: 1},
					{N1: cur.N1, N2: cur.N2, N3: cur.N3 + s, C1: 1, C2: 1, C3: 1},
				}
				for _, nb := range neighbors {
					if nb.Validate() != nil || nb.N3-nb.N2 > opts.MaxGap {
						continue // honor the configured cooling-gap bound
					}
					if ev, ok := eval(nb); ok && ev.CaptureProb > local.u+1e-12 {
						local = candidate{cp: nb, u: ev.CaptureProb}
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

// refineFractional greedily extends the best deterministic region policy
// with fractional boundary probabilities: widening the hot region at
// either edge or starting recovery one slot earlier, each scaled by
// bisection so E_out stays within e. Capture probability is nondecreasing
// in every activation probability (more activation shortens renewal
// cycles), so the largest feasible boundary value is the best one.
func refineFractional(pe *piEvaluator, e float64, cp ClusteringPolicy) ClusteringPolicy {
	baseU := func(c ClusteringPolicy) float64 {
		ev, err := pe.clustering(c)
		if err != nil || ev.EnergyRate > e*(1+1e-9)+1e-12 {
			return -1
		}
		return ev.CaptureProb
	}
	cur := cp
	curU := baseU(cur)
	for round := 0; round < 3; round++ {
		type variant struct {
			make func(c float64) ClusteringPolicy
			ok   bool
		}
		variants := []variant{
			{ // extend hot region one slot earlier with probability c
				make: func(c float64) ClusteringPolicy {
					v := cur
					v.N1--
					v.C1 = c
					return v
				},
				// floateq:ok region-boundary saturation: C1 is set to the exact constant 1
				ok: cur.N1 > 1 && cur.C1 == 1,
			},
			{ // extend hot region one slot later with probability c
				make: func(c float64) ClusteringPolicy {
					v := cur
					v.N2++
					v.C2 = c
					return v
				},
				// floateq:ok region-boundary saturation: C2 is set to the exact constant 1
				ok: cur.N2+1 < cur.N3 && cur.C2 == 1,
			},
			{ // start recovery one slot earlier with probability c
				make: func(c float64) ClusteringPolicy {
					v := cur
					v.N3--
					v.C3 = c
					return v
				},
				// floateq:ok region-boundary saturation: C3 is set to the exact constant 1
				ok: cur.N3-1 > cur.N2 && cur.C3 == 1,
			},
		}
		type result struct {
			cp ClusteringPolicy
			u  float64
		}
		bestVar := result{u: curU}
		for _, v := range variants {
			if !v.ok {
				continue
			}
			cost := func(c float64) float64 {
				ev, err := pe.clustering(v.make(c))
				if err != nil {
					return math.Inf(1)
				}
				return ev.EnergyRate
			}
			c, feasible := numeric.MaximizeMonotoneBudget(cost, e*(1+1e-9)+1e-12, 1e-6)
			if !feasible || c <= 1e-9 {
				continue
			}
			vp := v.make(c)
			if vp.Validate() != nil {
				continue
			}
			if u := baseU(vp); u > bestVar.u+1e-12 {
				bestVar = result{cp: vp, u: u}
			}
		}
		if bestVar.u <= curU+1e-12 {
			break
		}
		cur, curU = bestVar.cp, bestVar.u
	}
	return cur
}
