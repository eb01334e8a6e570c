package mdp

import (
	"fmt"
	"strconv"
	"strings"

	"eventcap/internal/numeric"
)

// POMDP is the exact finite-horizon version of the paper's partial-
// information problem (Section IV-B1), small enough to solve by
// enumerating reachable beliefs. The event process is a renewal process
// with a finite inter-arrival PMF whose support the belief state spans;
// the battery is integer-valued with a deterministic per-slot recharge so
// the model stays exactly solvable.
//
// Its purpose is twofold: to certify the clustering heuristic's
// near-optimality on small instances, and to measure the information-state
// growth that makes the exact approach intractable (the paper's
// "curse of dimensionality" claim).
type POMDP struct {
	alpha  []float64 // alpha[j-1] = P(X = j); must sum to 1
	hazard []float64 // hazard[j-1] = β_j, with β_L = 1 by construction

	delta1, delta2 int // activation / capture energy
	capacity       int // battery size K
	recharge       int // deterministic energy per slot

	horizon int
}

// NewPOMDP validates and builds the model. The PMF must sum to 1 within
// 1e-9 (full support — use dist.Tabulate with a tiny tail). delta1,
// delta2, capacity, recharge are in integer energy units; horizon is the
// number of slots to plan over.
func NewPOMDP(alpha []float64, delta1, delta2, capacity, recharge, horizon int) (*POMDP, error) {
	if len(alpha) == 0 {
		return nil, fmt.Errorf("mdp: POMDP needs a nonempty PMF")
	}
	var sum numeric.KahanSum
	for j, a := range alpha {
		if a < 0 {
			return nil, fmt.Errorf("mdp: negative PMF %g at slot %d", a, j+1)
		}
		sum.Add(a)
	}
	if s := sum.Value(); s < 1-1e-9 || s > 1+1e-9 {
		return nil, fmt.Errorf("mdp: POMDP PMF sums to %g, want 1", s)
	}
	if delta1 < 0 || delta2 < 0 || capacity < 1 || recharge < 0 || horizon < 1 {
		return nil, fmt.Errorf("mdp: invalid POMDP parameters (δ1=%d δ2=%d K=%d g=%d H=%d)",
			delta1, delta2, capacity, recharge, horizon)
	}
	p := &POMDP{
		alpha:    append([]float64(nil), alpha...),
		hazard:   make([]float64, len(alpha)),
		delta1:   delta1,
		delta2:   delta2,
		capacity: capacity,
		recharge: recharge,
		horizon:  horizon,
	}
	surv := 1.0
	for j := range alpha {
		if surv <= 1e-15 {
			p.hazard[j] = 1
			continue
		}
		h := alpha[j] / surv
		if h > 1 {
			h = 1
		}
		p.hazard[j] = h
		surv -= alpha[j]
	}
	p.hazard[len(alpha)-1] = 1 // the final support slot is certain
	return p, nil
}

// belief is a distribution over the hidden age (1..L): belief[j-1] is the
// probability the last true event was j slots ago.
type belief []float64

func (p *POMDP) initialBelief() belief {
	b := make(belief, len(p.alpha))
	b[0] = 1
	return b
}

// eventProb returns P(event occurs this slot | belief).
func (p *POMDP) eventProb(b belief) float64 {
	var sum numeric.KahanSum
	for j, w := range b {
		if w != 0 {
			sum.Add(w * p.hazard[j])
		}
	}
	v := sum.Value()
	if v > 1 {
		v = 1
	}
	return v
}

// predictMissed advances the belief one slot assuming no observation
// (inactive sensor): an unseen event resets the age to 1.
func (p *POMDP) predictMissed(b belief) belief {
	n := len(b)
	out := make(belief, n)
	var missed numeric.KahanSum
	for j := 0; j < n; j++ {
		w := b[j]
		if w == 0 {
			continue
		}
		h := p.hazard[j]
		missed.Add(w * h)
		stay := w * (1 - h)
		if stay > 0 {
			nj := j + 1
			if nj >= n {
				nj = n - 1 // absorbing; β there is 1 so mass can't sit
			}
			out[nj] += stay
		}
	}
	out[0] += missed.Value()
	return out
}

// conditionNoEvent advances the belief one slot given the sensor was
// active and saw nothing (so no event occurred).
func (p *POMDP) conditionNoEvent(b belief) belief {
	n := len(b)
	out := make(belief, n)
	var norm numeric.KahanSum
	for j := 0; j < n; j++ {
		w := b[j]
		if w == 0 {
			continue
		}
		stay := w * (1 - p.hazard[j])
		if stay > 0 {
			nj := j + 1
			if nj >= n {
				nj = n - 1
			}
			out[nj] += stay
			norm.Add(stay)
		}
	}
	t := norm.Value()
	if t <= 0 {
		// Impossible observation; keep a defensive uniform-at-max belief.
		out[n-1] = 1
		return out
	}
	for j := range out {
		out[j] /= t
	}
	return out
}

func beliefKey(b belief) string {
	var sb strings.Builder
	sb.Grow(len(b) * 10)
	for _, v := range b {
		// 9 significant digits: collapses float noise, keeps distinct
		// information states distinct.
		sb.WriteString(strconv.FormatFloat(v, 'e', 8, 64))
		sb.WriteByte(',')
	}
	return sb.String()
}

// Result reports an exact finite-horizon solve.
type Result struct {
	// Value is the expected number of captures over the horizon starting
	// from a fresh capture (belief = age 1) and a full battery.
	Value float64
	// DistinctBeliefs is the number of distinct belief states memoized
	// across the solve — the size of the information-state space actually
	// reached.
	DistinctBeliefs int
	// MemoEntries is the total number of (slot, belief, battery) DP
	// nodes, the true computational cost.
	MemoEntries int
}

type memoKey struct {
	t, battery int
	belief     string
}

// SolveExact computes the optimal expected captures over the horizon by
// belief-state dynamic programming with memoization. Complexity grows with
// the number of reachable beliefs, which is exponential in the horizon in
// general — Result reports the counts.
func (p *POMDP) SolveExact() *Result {
	memo := make(map[memoKey]float64)
	beliefs := make(map[string]struct{})

	var solve func(t, battery int, b belief) float64
	solve = func(t, battery int, b belief) float64 {
		if t >= p.horizon {
			return 0
		}
		// Recharge completes at the beginning of the slot (paper Fig. 1).
		battery += p.recharge
		if battery > p.capacity {
			battery = p.capacity
		}
		key := memoKey{t: t, battery: battery, belief: beliefKey(b)}
		if v, ok := memo[key]; ok {
			return v
		}
		beliefs[key.belief] = struct{}{}

		// Inactive.
		best := solve(t+1, battery, p.predictMissed(b))
		// Active requires δ1+δ2 on hand (paper Section III-A).
		if battery >= p.delta1+p.delta2 {
			h := p.eventProb(b)
			v := h * (1 + solve(t+1, battery-p.delta1-p.delta2, p.initialBelief()))
			if h < 1 {
				v += (1 - h) * solve(t+1, battery-p.delta1, p.conditionNoEvent(b))
			}
			if v > best {
				best = v
			}
		}
		memo[key] = best
		return best
	}

	value := solve(0, p.capacity-p.recharge, p.initialBelief())
	return &Result{Value: value, DistinctBeliefs: len(beliefs), MemoEntries: len(memo)}
}

// EvaluateVector computes the expected captures of a fixed activation
// vector under the same finite-horizon dynamics: the sensor intends to
// activate in state f (slots since last capture, 1-based) iff vec says so
// and the battery allows. vec[f-1] is consulted; beyond the vector's
// length, tail applies (the clustering policy's aggressive region).
func (p *POMDP) EvaluateVector(vec []bool, tail bool) *Result {
	memo := make(map[string]float64)
	beliefs := make(map[string]struct{})

	want := func(f int) bool {
		if f-1 < len(vec) {
			return vec[f-1]
		}
		return tail
	}

	var eval func(t, battery, f int, b belief) float64
	eval = func(t, battery, f int, b belief) float64 {
		if t >= p.horizon {
			return 0
		}
		battery += p.recharge
		if battery > p.capacity {
			battery = p.capacity
		}
		key := beliefKey(b) + "|" + strconv.Itoa(t) + "," + strconv.Itoa(battery) + "," + strconv.Itoa(f)
		if v, ok := memo[key]; ok {
			return v
		}
		beliefs[beliefKey(b)] = struct{}{}

		var v float64
		if want(f) && battery >= p.delta1+p.delta2 {
			h := p.eventProb(b)
			v = h * (1 + eval(t+1, battery-p.delta1-p.delta2, 1, p.initialBelief()))
			if h < 1 {
				v += (1 - h) * eval(t+1, battery-p.delta1, f+1, p.conditionNoEvent(b))
			}
		} else {
			v = eval(t+1, battery, f+1, p.predictMissed(b))
		}
		memo[key] = v
		return v
	}

	value := eval(0, p.capacity-p.recharge, 1, p.initialBelief())
	return &Result{Value: value, DistinctBeliefs: len(beliefs), MemoEntries: len(memo)}
}
