package core

import (
	"fmt"
	"math"
)

// UnboundedRun is the saturating run length an ActivationTable reports for
// states inside an infinite zero or one tail: the policy never changes its
// activation probability again no matter how far the state advances. It is
// far below math.MaxInt64 so callers may add slot offsets to it without
// overflow.
const UnboundedRun = math.MaxInt64 / 4

// ActivationTable is a Vector compiled for the simulation kernel: a dense
// probability array plus, for every state, the length of the run of
// consecutive states starting there that share a deterministic decision.
// The kernel uses the run lengths to advance whole stretches in one step:
// a run of z zero states means z slots with no activation draw and no
// battery consumption, and a run of ones means slots whose activation
// needs no draw either (rng.Bernoulli(1) draws nothing), so only the
// battery gate decides them.
type ActivationTable struct {
	// Prob[i-1] is the activation probability in state i, for states
	// 1..len(Prob); Tail applies to every later state.
	Prob []float64
	Tail float64
	// Run[i-1] is the signed run length at state i: z > 0 when the z
	// consecutive states starting at i have probability zero, −o < 0 when
	// the o states starting at i have probability one, and 0 when
	// Prob[i-1] is fractional. A run that extends into a zero or one Tail
	// saturates at ±UnboundedRun. Both kinds share one array so a compiled
	// table costs one run word per state.
	Run []int64
}

// CompileVector compiles v into an ActivationTable. It fails when v has an
// out-of-range probability, so callers can fall back to an uncompiled path
// instead of simulating a malformed policy.
func CompileVector(v Vector) (*ActivationTable, error) {
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("core: cannot compile activation vector: %w", err)
	}
	t := &ActivationTable{
		Prob: make([]float64, len(v.Prefix)),
		Tail: v.Tail,
		Run:  make([]int64, len(v.Prefix)),
	}
	copy(t.Prob, v.Prefix)
	// Walk backwards so each state's run extends the next state's run.
	run := tailRun(t.Tail)
	for i := len(t.Prob) - 1; i >= 0; i-- {
		switch p := t.Prob[i]; {
		case !(p > 0):
			if run < 0 {
				run = 0
			}
			if run < UnboundedRun {
				run++
			}
		case p >= 1:
			if run > 0 {
				run = 0
			}
			if run > -UnboundedRun {
				run--
			}
		default:
			run = 0
		}
		t.Run[i] = run
	}
	return t, nil
}

// tailRun is the signed run length of every state past the prefix.
func tailRun(tail float64) int64 {
	switch {
	case tail == 0:
		return UnboundedRun
	case tail >= 1:
		return -UnboundedRun
	}
	return 0
}

// At returns the activation probability for state i (0 for i < 1,
// mirroring Vector.At).
func (t *ActivationTable) At(i int) float64 {
	if i < 1 {
		return 0
	}
	if i <= len(t.Prob) {
		return t.Prob[i-1]
	}
	return t.Tail
}

// RunFrom returns the signed run length at state i (see Run): positive for
// a run of zero-probability states, negative for a run of probability-one
// states, 0 when state i is fractional. States below 1 are treated as
// state 1 (Vector.At is zero there only for i < 1, which no simulated
// state reaches).
func (t *ActivationTable) RunFrom(i int) int64 {
	if i < 1 {
		i = 1
	}
	if i <= len(t.Run) {
		return t.Run[i-1]
	}
	return tailRun(t.Tail)
}
