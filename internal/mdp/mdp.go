// Package mdp provides finite Markov-decision-process machinery with the
// average-reward criterion used throughout the paper's analysis (Section
// IV frames both information models as average-reward Markov control
// problems), plus an exact finite-horizon POMDP solver that demonstrates
// the exponential information-state growth of Section IV-B.
//
// The solvers are deliberately simple and exact-ish (relative value
// iteration, policy evaluation via linear solves, an LP cross-check):
// they serve as independent verification of the paper's structural
// results (e.g. the greedy Theorem-1 policy emerging as the optimum of a
// Lagrangian MDP), not as a production RL toolkit.
package mdp

import (
	"errors"
	"fmt"
	"math"

	"eventcap/internal/numeric"
)

// Transition is one outcome of a state-action pair.
type Transition struct {
	Next int
	Prob float64
}

// MDP is a finite MDP with explicit transition tables.
type MDP struct {
	numStates, numActions int
	trans                 [][][]Transition // [state][action] -> outcomes
	reward                [][]float64      // [state][action] -> expected reward
	defined               [][]bool
}

// New creates an MDP with the given numbers of states and actions. All
// state-action pairs must be defined via SetTransition before solving.
func New(numStates, numActions int) (*MDP, error) {
	if numStates < 1 || numActions < 1 {
		return nil, fmt.Errorf("mdp: need at least one state and action, got (%d, %d)", numStates, numActions)
	}
	m := &MDP{
		numStates:  numStates,
		numActions: numActions,
		trans:      make([][][]Transition, numStates),
		reward:     make([][]float64, numStates),
		defined:    make([][]bool, numStates),
	}
	for s := 0; s < numStates; s++ {
		m.trans[s] = make([][]Transition, numActions)
		m.reward[s] = make([]float64, numActions)
		m.defined[s] = make([]bool, numActions)
	}
	return m, nil
}

// SetTransition defines the dynamics of (state, action): the outcome
// distribution (probabilities must sum to 1 within 1e-9) and the expected
// one-step reward.
func (m *MDP) SetTransition(state, action int, outcomes []Transition, reward float64) error {
	if state < 0 || state >= m.numStates {
		return fmt.Errorf("mdp: state %d out of range [0, %d)", state, m.numStates)
	}
	if action < 0 || action >= m.numActions {
		return fmt.Errorf("mdp: action %d out of range [0, %d)", action, m.numActions)
	}
	var sum numeric.KahanSum
	cp := make([]Transition, len(outcomes))
	for i, o := range outcomes {
		if o.Next < 0 || o.Next >= m.numStates {
			return fmt.Errorf("mdp: transition target %d out of range", o.Next)
		}
		if o.Prob < 0 {
			return fmt.Errorf("mdp: negative transition probability %g", o.Prob)
		}
		sum.Add(o.Prob)
		cp[i] = o
	}
	if s := sum.Value(); math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("mdp: outcome probabilities for (%d, %d) sum to %g", state, action, s)
	}
	m.trans[state][action] = cp
	m.reward[state][action] = reward
	m.defined[state][action] = true
	return nil
}

func (m *MDP) checkComplete() error {
	for s := 0; s < m.numStates; s++ {
		for a := 0; a < m.numActions; a++ {
			if !m.defined[s][a] {
				return fmt.Errorf("mdp: state %d action %d has no transition defined", s, a)
			}
		}
	}
	return nil
}

// Solution is the result of an average-reward solve.
type Solution struct {
	// Gain is the optimal long-run average reward per step (unichain
	// assumption: identical from every state).
	Gain float64
	// Bias is the relative value (differential reward) of each state,
	// normalized so Bias[0] == 0.
	Bias []float64
	// Policy maps each state to an optimal action.
	Policy []int
}

// ErrNoConverge is returned when value iteration fails to reach the
// requested span tolerance.
var ErrNoConverge = errors.New("mdp: relative value iteration did not converge")

// RelativeValueIteration solves the average-reward problem for a unichain
// MDP: it iterates h ← T(h) − T(h)(s₀) until the span of T(h) − h falls
// below tol.
func (m *MDP) RelativeValueIteration(tol float64, maxIter int) (*Solution, error) {
	if err := m.checkComplete(); err != nil {
		return nil, err
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 100000
	}
	// Damping (aperiodicity transform): h ← h + τ(T(h) − h) with τ < 1
	// guarantees span convergence even for periodic chains such as
	// deterministic cycles.
	const tau = 0.5
	h := make([]float64, m.numStates)
	th := make([]float64, m.numStates)
	policy := make([]int, m.numStates)
	for iter := 0; iter < maxIter; iter++ {
		for s := 0; s < m.numStates; s++ {
			best := math.Inf(-1)
			bestA := 0
			for a := 0; a < m.numActions; a++ {
				v := m.reward[s][a]
				for _, o := range m.trans[s][a] {
					v += o.Prob * h[o.Next]
				}
				if v > best+1e-15 {
					best = v
					bestA = a
				}
			}
			th[s] = best
			policy[s] = bestA
		}
		// Span of the Bellman increment T(h) − h brackets the gain.
		lo, hi := math.Inf(1), math.Inf(-1)
		for s := 0; s < m.numStates; s++ {
			d := th[s] - h[s]
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		if hi-lo < tol {
			gain := (hi + lo) / 2
			bias := make([]float64, m.numStates)
			ref := h[0]
			for s := 0; s < m.numStates; s++ {
				bias[s] = h[s] - ref
			}
			return &Solution{Gain: gain, Bias: bias, Policy: policy}, nil
		}
		// Damped update, renormalized against state 0 to keep h bounded.
		ref := (1-tau)*h[0] + tau*th[0]
		for s := 0; s < m.numStates; s++ {
			h[s] = (1-tau)*h[s] + tau*th[s] - ref
		}
	}
	return nil, ErrNoConverge
}

// EvaluatePolicy returns the long-run average reward of a stationary
// deterministic policy by computing the stationary distribution of the
// induced chain (unichain assumption).
func (m *MDP) EvaluatePolicy(policy []int) (float64, error) {
	if err := m.checkComplete(); err != nil {
		return 0, err
	}
	if len(policy) != m.numStates {
		return 0, fmt.Errorf("mdp: policy length %d != %d states", len(policy), m.numStates)
	}
	p := numeric.NewMatrix(m.numStates, m.numStates)
	for s, a := range policy {
		if a < 0 || a >= m.numActions {
			return 0, fmt.Errorf("mdp: policy action %d out of range at state %d", a, s)
		}
		for _, o := range m.trans[s][a] {
			p.Set(s, o.Next, p.At(s, o.Next)+o.Prob)
		}
	}
	y, err := numeric.StationaryDistribution(p)
	if err != nil {
		return 0, fmt.Errorf("evaluating policy: %w", err)
	}
	var gain numeric.KahanSum
	for s, a := range policy {
		gain.Add(y[s] * m.reward[s][a])
	}
	return gain.Value(), nil
}

// SolveLP solves the average-reward problem as the classic occupancy-
// measure linear program:
//
//	maximize   Σ_{s,a} r(s,a)·x(s,a)
//	subject to Σ_a x(j,a) = Σ_{s,a} p(j|s,a)·x(s,a)  for all j
//	           Σ_{s,a} x(s,a) = 1,  x >= 0.
//
// It provides an independent check of RelativeValueIteration.
func (m *MDP) SolveLP() (float64, error) {
	if err := m.checkComplete(); err != nil {
		return 0, err
	}
	n := m.numStates * m.numActions
	idx := func(s, a int) int { return s*m.numActions + a }

	lp := numeric.NewLP(n)
	obj := make([]float64, n)
	for s := 0; s < m.numStates; s++ {
		for a := 0; a < m.numActions; a++ {
			obj[idx(s, a)] = m.reward[s][a]
		}
	}
	lp.SetObjective(obj, true)

	// Balance constraints. One is redundant with normalization; keeping
	// all of them is harmless for the simplex.
	for j := 0; j < m.numStates; j++ {
		coef := make([]float64, n)
		for a := 0; a < m.numActions; a++ {
			coef[idx(j, a)] += 1
		}
		for s := 0; s < m.numStates; s++ {
			for a := 0; a < m.numActions; a++ {
				for _, o := range m.trans[s][a] {
					if o.Next == j {
						coef[idx(s, a)] -= o.Prob
					}
				}
			}
		}
		lp.AddConstraint(coef, numeric.Equal, 0)
	}
	norm := make([]float64, n)
	for i := range norm {
		norm[i] = 1
	}
	lp.AddConstraint(norm, numeric.Equal, 1)

	sol, err := lp.Solve()
	if err != nil {
		return 0, fmt.Errorf("average-reward LP: %w", err)
	}
	return sol.Objective, nil
}
