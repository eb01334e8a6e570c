package mdp

import (
	"math"
	"testing"

	"eventcap/internal/rng"
)

func TestPOMDPValidation(t *testing.T) {
	if _, err := NewPOMDP(nil, 1, 6, 10, 1, 5); err == nil {
		t.Fatal("empty PMF accepted")
	}
	if _, err := NewPOMDP([]float64{0.5}, 1, 6, 10, 1, 5); err == nil {
		t.Fatal("sub-stochastic PMF accepted")
	}
	if _, err := NewPOMDP([]float64{-0.5, 1.5}, 1, 6, 10, 1, 5); err == nil {
		t.Fatal("negative PMF accepted")
	}
	if _, err := NewPOMDP([]float64{1}, 1, 6, 0, 1, 5); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewPOMDP([]float64{1}, 1, 6, 10, 1, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestPOMDPDeterministicFullCapture(t *testing.T) {
	// X = 3 always, ample energy: the optimal policy captures every event
	// (they occur at slots 3, 6, 9 after the initial capture at slot 0).
	p, err := NewPOMDP([]float64{0, 0, 1}, 1, 1, 100, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	res := p.SolveExact()
	if math.Abs(res.Value-3) > 1e-9 {
		t.Fatalf("value %v, want 3 (every event captured)", res.Value)
	}
}

func TestPOMDPEnergyStarved(t *testing.T) {
	// X = 1 always (event every slot) but recharging 1 unit per slot with
	// δ1 = 1, δ2 = 1: each capture costs 2, so at most every other slot.
	p, err := NewPOMDP([]float64{1}, 1, 1, 2, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	res := p.SolveExact()
	if res.Value > 6+1e-9 {
		t.Fatalf("value %v exceeds the energy bound", res.Value)
	}
	if res.Value < 5-1e-9 {
		t.Fatalf("value %v below the achievable ~half duty cycle", res.Value)
	}
}

func TestPOMDPVectorNeverBeatsExact(t *testing.T) {
	src := rng.New(90, 0)
	for trial := 0; trial < 10; trial++ {
		n := 2 + src.Intn(3)
		alpha := make([]float64, n)
		var total float64
		for i := range alpha {
			alpha[i] = src.Float64() + 0.05
			total += alpha[i]
		}
		for i := range alpha {
			alpha[i] /= total
		}
		p, err := NewPOMDP(alpha, 1, 2, 6, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		exact := p.SolveExact()
		// Random vector policies.
		for v := 0; v < 5; v++ {
			vec := make([]bool, 4)
			for i := range vec {
				vec[i] = src.Bernoulli(0.5)
			}
			got := p.EvaluateVector(vec, src.Bernoulli(0.5))
			if got.Value > exact.Value+1e-9 {
				t.Fatalf("trial %d: vector policy %v beats exact (%v > %v)",
					trial, vec, got.Value, exact.Value)
			}
		}
	}
}

func TestPOMDPAlwaysOnMatchesExactForMemoryless(t *testing.T) {
	// Geometric hazards are constant, so with ample energy no policy can
	// beat always-on; the vector evaluation must equal the exact optimum.
	g := 0.3
	n := 40 // long enough that truncation mass is negligible
	alpha := make([]float64, n)
	surv := 1.0
	for i := 0; i < n-1; i++ {
		alpha[i] = surv * g
		surv *= 1 - g
	}
	alpha[n-1] = surv
	p, err := NewPOMDP(alpha, 1, 1, 1000, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	exact := p.SolveExact()
	always := p.EvaluateVector(nil, true)
	if math.Abs(exact.Value-always.Value) > 1e-6 {
		t.Fatalf("exact %v != always-on %v for memoryless events", exact.Value, always.Value)
	}
}

func TestInformationStateGrowth(t *testing.T) {
	// A 6-slot uniform inter-arrival process: distinct observation
	// histories map to distinct beliefs, so the number of beliefs the
	// exact solver reaches grows rapidly with the horizon (the paper's
	// exponential-complexity claim, reported by ablation-pomdp).
	alpha := []float64{1.0 / 6, 1.0 / 6, 1.0 / 6, 1.0 / 6, 1.0 / 6, 1.0 / 6}
	counts := make([]int, 8)
	for h := 1; h <= len(counts); h++ {
		p, err := NewPOMDP(alpha, 1, 6, 10, 1, h)
		if err != nil {
			t.Fatal(err)
		}
		counts[h-1] = p.SolveExact().DistinctBeliefs
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("information-state count decreased at horizon %d: %v", i+1, counts)
		}
	}
	if counts[7] < 4*counts[1] {
		t.Fatalf("expected strong growth, got %v", counts)
	}
}

func TestPOMDPBeliefsCountReported(t *testing.T) {
	p, err := NewPOMDP([]float64{0.3, 0.3, 0.4}, 1, 1, 5, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	res := p.SolveExact()
	if res.DistinctBeliefs < 2 {
		t.Fatalf("suspiciously few beliefs: %d", res.DistinctBeliefs)
	}
	if res.MemoEntries < res.DistinctBeliefs {
		t.Fatalf("memo entries %d < beliefs %d", res.MemoEntries, res.DistinctBeliefs)
	}
}

func BenchmarkPOMDPExactHorizon12(b *testing.B) {
	alpha := []float64{0.2, 0.3, 0.3, 0.2}
	for i := 0; i < b.N; i++ {
		p, err := NewPOMDP(alpha, 1, 2, 8, 1, 12)
		if err != nil {
			b.Fatal(err)
		}
		_ = p.SolveExact()
	}
}
