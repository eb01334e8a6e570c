package core

import (
	"fmt"
	"sort"

	"eventcap/internal/dist"
)

// WindowPolicy generalizes the clustering policy with additional
// transition points — the refinement the paper sketches at the end of
// Section IV-B2 ("introduce transition points c_n4, c_n5, ..., after
// c_n3"), which converges toward the exact POMDP optimum π*_PI as more
// points are added. The policy is a base clustering policy plus extra
// sleep windows carved out of the aggressive recovery tail:
//
//	c_i = 0            if i falls inside any extra window
//	c_i = Base.At(i)   otherwise.
//
// Each window [Start, Start+Len) must lie at or after Base.N3.
type WindowPolicy struct {
	Base    ClusteringPolicy
	Windows []SleepWindow
}

// SleepWindow is a half-open sleep interval [Start, Start+Len) of
// f-states.
type SleepWindow struct {
	Start, Len int
}

// Validate checks the base policy and window placement (ordered,
// disjoint, within the recovery tail).
func (w WindowPolicy) Validate() error {
	if err := w.Base.Validate(); err != nil {
		return err
	}
	prevEnd := w.Base.N3 + 1 // the recovery tail must start with >=1 active slot
	for k, win := range w.Windows {
		if win.Len < 1 {
			return fmt.Errorf("core: sleep window %d has length %d", k, win.Len)
		}
		if win.Start < prevEnd {
			return fmt.Errorf("core: sleep window %d starts at %d, before %d", k, win.Start, prevEnd)
		}
		prevEnd = win.Start + win.Len + 1 // at least one active slot between windows
	}
	return nil
}

// At returns the activation probability in f-state i.
func (w WindowPolicy) At(i int) float64 {
	for _, win := range w.Windows {
		if i >= win.Start && i < win.Start+win.Len {
			return 0
		}
	}
	return w.Base.At(i)
}

// Vector materializes the policy with an always-on tail.
func (w WindowPolicy) Vector() Vector {
	end := w.Base.N3
	if n := len(w.Windows); n > 0 {
		end = w.Windows[n-1].Start + w.Windows[n-1].Len
	}
	prefix := make([]float64, end)
	for i := 1; i <= end; i++ {
		prefix[i-1] = w.At(i)
	}
	return Vector{Prefix: prefix, Tail: 1}
}

// WindowResult is an optimized window-refined policy.
type WindowResult struct {
	Policy      WindowPolicy
	Vector      Vector
	CaptureProb float64
	EnergyRate  float64
	// BaseCaptureProb is the unrefined clustering policy's U, for
	// measuring the refinement gain.
	BaseCaptureProb float64
}

// RefineWindows improves an optimized clustering policy by inserting up
// to maxWindows extra sleep windows into its recovery tail, re-balancing
// energy after each insertion (the freed energy raises U by shortening
// cycles elsewhere through the fractional boundaries). The search is
// greedy: each round scans candidate (start, length) pairs on a coarse
// grid and keeps the best strict improvement.
func RefineWindows(d dist.Interarrival, e float64, p Params, base *PIResult, maxWindows int) (*WindowResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if base == nil {
		return nil, fmt.Errorf("core: RefineWindows needs a base clustering result")
	}
	if maxWindows < 0 {
		maxWindows = 0
	}
	pe := newPIEvaluator(d, p)
	defer pe.publish()
	cur := WindowPolicy{Base: base.Policy}
	curEval, err := pe.evaluate(func(i int, _ float64) float64 { return cur.At(i) })
	if err != nil {
		return nil, fmt.Errorf("evaluating base policy: %w", err)
	}
	curU := curEval.CaptureProb

	budget := e*(1+1e-9) + 1e-12
	for round := 0; round < maxWindows; round++ {
		// Candidate windows live after the last existing window (keeping
		// the list sorted and disjoint by construction).
		lo := cur.Base.N3 + 1
		if n := len(cur.Windows); n > 0 {
			lo = cur.Windows[n-1].Start + cur.Windows[n-1].Len + 1
		}
		horizon := curEval.Horizon
		if lo >= horizon {
			break
		}
		// Phase 1: scan candidates with the plain evaluation only; the
		// energy respend (a boundary search per knob) runs once on the
		// round's winner rather than on every candidate.
		type scored struct {
			pol  WindowPolicy
			ev   *PIEval
			gain float64 // freed energy — a window helps only through it
		}
		var bestCand *scored
		for start := lo; start < horizon; start += maxInt(1, (horizon-lo)/24) {
			for length := 1; length <= horizon-start; length *= 2 {
				cand := WindowPolicy{
					Base:    cur.Base,
					Windows: append(append([]SleepWindow(nil), cur.Windows...), SleepWindow{Start: start, Len: length}),
				}
				if cand.Validate() != nil {
					continue
				}
				ev, err := pe.evaluate(func(i int, _ float64) float64 { return cand.At(i) })
				if err != nil || ev.EnergyRate > budget {
					continue
				}
				gain := curEval.EnergyRate - ev.EnergyRate
				score := ev.CaptureProb + gain // optimistic: freed energy ≈ U headroom
				if bestCand == nil || score > bestCand.ev.CaptureProb+bestCand.gain {
					bestCand = &scored{pol: cand, ev: ev, gain: gain}
				}
			}
		}
		if bestCand == nil {
			break
		}
		// Phase 2: respend the winner's freed energy on the hot boundary.
		pol2, ev2 := respendOnBoundary(pe, e, bestCand.pol)
		improved := false
		if ev2 != nil && ev2.CaptureProb > curU+1e-12 {
			cur, curU, curEval = pol2, ev2.CaptureProb, ev2
			improved = true
		} else if bestCand.ev.CaptureProb > curU+1e-12 {
			cur, curU, curEval = bestCand.pol, bestCand.ev.CaptureProb, bestCand.ev
			improved = true
		}
		if !improved {
			break
		}
		sort.Slice(cur.Windows, func(a, b int) bool { return cur.Windows[a].Start < cur.Windows[b].Start })
	}

	return &WindowResult{
		Policy:          cur,
		Vector:          cur.Vector(),
		CaptureProb:     curU,
		EnergyRate:      curEval.EnergyRate,
		BaseCaptureProb: base.CaptureProb,
	}, nil
}

// respendOnBoundary re-balances energy freed by a sleep window through
// the policy's fractional knobs: widening the hot region's entry
// boundary, or raising the recovery entry probability C3. The best
// feasible adjustment wins; the unadjusted policy is the fallback. It
// returns the adjusted policy and its evaluation (nil if nothing
// evaluates).
func respendOnBoundary(pe *piEvaluator, e float64, w WindowPolicy) (WindowPolicy, *PIEval) {
	budget := e*(1+1e-9) + 1e-12
	evalOf := func(pol WindowPolicy) *PIEval {
		ev, err := pe.evaluate(func(i int, _ float64) float64 { return pol.At(i) })
		if err != nil || ev.EnergyRate > budget {
			return nil
		}
		return ev
	}

	bestPol := w
	bestEval := evalOf(w)

	type knob struct {
		ok   bool
		make func(c float64) WindowPolicy
	}
	knobs := []knob{
		{ // widen the hot region one slot earlier
			// floateq:ok region-boundary saturation: C1 is set to the exact constant 1
			ok: w.Base.N1 > 1 && w.Base.C1 == 1,
			make: func(c float64) WindowPolicy {
				v := w
				v.Base.N1--
				v.Base.C1 = c
				return v
			},
		},
		{ // raise the fractional recovery entry
			ok: w.Base.C3 < 1,
			make: func(c float64) WindowPolicy {
				v := w
				v.Base.C3 = c
				return v
			},
		},
	}
	for _, k := range knobs {
		if !k.ok {
			continue
		}
		eval := func(c float64) (*PIEval, error) {
			pol := k.make(c)
			return pe.evaluate(func(i int, _ float64) float64 { return pol.At(i) })
		}
		c, feasible := pe.maxBoundaryProb(eval, budget)
		if !feasible || c <= 1e-9 {
			continue
		}
		pol := k.make(c)
		if ev := evalOf(pol); ev != nil && (bestEval == nil || ev.CaptureProb > bestEval.CaptureProb) {
			bestPol, bestEval = pol, ev
		}
	}
	if bestEval == nil {
		return w, nil
	}
	return bestPol, bestEval
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
