package sim

import (
	"math"
	"testing"

	"eventcap/internal/core"
	"eventcap/internal/dist"
)

// TestAdaptiveApproachesKnownDistribution: the learning policy must close
// most of the gap to the policy computed from the true distribution.
func TestAdaptiveApproachesKnownDistribution(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	p := core.DefaultParams()
	const e = 0.5

	known, err := core.GreedyFI(d, e, p)
	if err != nil {
		t.Fatal(err)
	}
	run := func(newPolicy func(int) Policy, seed uint64) float64 {
		res, err := Run(Config{
			Dist:        d,
			Params:      p,
			NewRecharge: bernoulliFactory(t, 0.5, 1),
			NewPolicy:   newPolicy,
			BatteryCap:  1000,
			Slots:       2_000_000,
			Seed:        seed,
			Info:        FullInfo,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.QoM
	}
	knownQ := run(func(int) Policy { return &VectorFI{Vector: known.Policy} }, 5)
	adaptQ := run(func(int) Policy { return &AdaptiveGreedyFI{E: e, Params: p} }, 5)

	if adaptQ < knownQ-0.06 {
		t.Fatalf("adaptive QoM %v too far below known-distribution %v", adaptQ, knownQ)
	}
	if adaptQ > knownQ+0.02 {
		t.Fatalf("adaptive QoM %v suspiciously above known-distribution %v", adaptQ, knownQ)
	}
}

// TestAdaptiveBeatsBlindBaseline: learning must clearly outperform the
// warmup coin flip it starts from.
func TestAdaptiveBeatsBlindBaseline(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	p := core.DefaultParams()
	const e = 0.5
	adaptive := &AdaptiveGreedyFI{E: e, Params: p}
	res, err := Run(Config{
		Dist:        d,
		Params:      p,
		NewRecharge: bernoulliFactory(t, 0.5, 1),
		NewPolicy:   func(int) Policy { return adaptive },
		BatteryCap:  1000,
		Slots:       1_000_000,
		Seed:        6,
		Info:        FullInfo,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The blind policy captures ≈ e/(δ1+δ2/μ) ≈ 0.43 at best; the greedy
	// optimum is ≈ 0.80. Learning should land clearly above the blind
	// level.
	if res.QoM < 0.6 {
		t.Fatalf("adaptive QoM %v did not rise above blind levels", res.QoM)
	}
}

func TestAdaptiveFailsSafeUnderPartialInfo(t *testing.T) {
	a := &AdaptiveGreedyFI{E: 0.5, Params: core.DefaultParams()}
	a.Reset()
	if got := a.ActivationProb(SlotState{SinceEvent: -1}); got != 0 {
		t.Fatalf("without full information the policy should sleep, got %v", got)
	}
}

func TestAdaptiveWarmupProbability(t *testing.T) {
	a := &AdaptiveGreedyFI{E: 0.5, Params: core.DefaultParams()}
	a.Reset()
	want := 0.5 / 7
	if got := a.ActivationProb(SlotState{SinceEvent: 3}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("warmup probability %v, want %v", got, want)
	}
	if a.Name() != "adaptive-greedy-fi" {
		t.Fatal("name mismatch")
	}
}

func TestGapEstimator(t *testing.T) {
	est, err := core.NewGapEstimator(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Distribution(); err == nil {
		t.Fatal("empty estimator produced a distribution")
	}
	for i := 0; i < 500; i++ {
		est.Observe(5)
	}
	for i := 0; i < 500; i++ {
		est.Observe(10)
	}
	est.Observe(0)    // ignored
	est.Observe(-3)   // ignored
	est.Observe(1000) // clamped to maxGap
	if est.Count() != 1001 {
		t.Fatalf("count %d, want 1001", est.Count())
	}
	d, err := est.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.PMF(5)-0.5) > 0.05 || math.Abs(d.PMF(10)-0.5) > 0.05 {
		t.Fatalf("estimated PMF off: P(5)=%v P(10)=%v", d.PMF(5), d.PMF(10))
	}
	// Smoothing keeps unobserved cells positive.
	if d.PMF(7) <= 0 {
		t.Fatal("smoothing failed: zero probability on unseen gap")
	}
	if _, err := core.NewGapEstimator(0); err == nil {
		t.Fatal("maxGap 0 accepted")
	}
}

// TestGapEstimatorRecoversTrueDistribution feeds samples from a known
// law and checks the plug-in greedy policy approaches the true optimum.
func TestGapEstimatorRecoversTrueDistribution(t *testing.T) {
	truth, err := dist.NewUniformInt(5, 15)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewGapEstimator(1000)
	if err != nil {
		t.Fatal(err)
	}
	src := newTestSource(t)
	for i := 0; i < 20000; i++ {
		est.Observe(truth.Sample(src))
	}
	d, err := est.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	trueFI, err := core.GreedyFI(truth, 0.3, p)
	if err != nil {
		t.Fatal(err)
	}
	estFI, err := core.GreedyFI(d, 0.3, p)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the plug-in policy against the TRUE distribution.
	gotU := estFI.Policy.CaptureProbFI(truth)
	if gotU < trueFI.CaptureProb-0.02 {
		t.Fatalf("plug-in policy U %v, true optimum %v", gotU, trueFI.CaptureProb)
	}
}
