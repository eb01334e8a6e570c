package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eventcap/internal/dist"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/pi_golden.txt from the current solver")

const piGoldenPath = "testdata/pi_golden.txt"

// bitsOf renders a float64 as its exact bit pattern followed by a
// readable value; the bits are what the golden comparison pins.
func bitsOf(v float64) string {
	return fmt.Sprintf("%016x(%.17g)", math.Float64bits(v), v)
}

// goldenMarkov is the fig5a chain (a, b) = (0.5, 0.2) the golden solves.
func goldenMarkov(t testing.TB) *dist.MarkovRenewal {
	t.Helper()
	m, err := dist.NewMarkovRenewal(0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenSolveOptions mirrors the quick robust pick of the experiments
// package: the base search and its gap-capped twin (16·⌈μ⌉, clamped to
// [8, base MaxGap]). The twin is dropped when it equals the base.
func goldenSolveOptions(d dist.Interarrival) []ClusteringOptions {
	base := ClusteringOptions{CoarsePoints: 8, MaxGap: 512}
	capped := base
	capped.MaxGap = 16 * int(d.Mean()+1)
	if capped.MaxGap < 8 {
		capped.MaxGap = 8
	}
	if capped.MaxGap > base.MaxGap {
		capped.MaxGap = base.MaxGap
	}
	if capped == base {
		return []ClusteringOptions{base}
	}
	return []ClusteringOptions{base, capped}
}

// goldenChains are hand-picked f-chains that exercise the evaluator's
// edge cases: the Pareto(2,10) elder bucket (the recovery tail parks in
// the absorbing age at maxBeliefAges) and a Weibull(40,3) chain whose
// belief mass reaches zero before survival reaches the stop tolerance.
func goldenChains(t testing.TB) []struct {
	name string
	d    dist.Interarrival
	cp   ClusteringPolicy
} {
	return []struct {
		name string
		d    dist.Interarrival
		cp   ClusteringPolicy
	}{
		{"pareto-elder", mustPareto(t, 2, 10), ClusteringPolicy{N1: 39, N2: 79, N3: 487, C1: 0.02401447296142578, C2: 1, C3: 1.239776611328125e-05}},
		{"weibull-dead-tail", mustWeibull(t, 40, 3), ClusteringPolicy{N1: 46, N2: 46, N3: 260, C1: 1, C2: 1, C3: 0.8027353286743164}},
	}
}

// piGoldenLines computes every pinned solver output, one line each.
func piGoldenLines(t *testing.T) []string {
	p := DefaultParams()
	var lines []string
	solves := []struct {
		d     dist.Interarrival
		rates []float64
	}{
		{mustWeibull(t, 40, 3), []float64{0.1, 0.5, 1.2}},
		{mustPareto(t, 2, 10), []float64{0.25, 0.75, 1.25}},
		{goldenMarkov(t), []float64{0.5, 1, 1.5}},
	}
	for _, s := range solves {
		for _, e := range s.rates {
			for _, o := range goldenSolveOptions(s.d) {
				res, err := OptimizeClustering(s.d, e, p, o)
				if err != nil {
					t.Fatalf("%s e=%g %+v: %v", s.d.Name(), e, o, err)
				}
				cp := res.Policy
				lines = append(lines, fmt.Sprintf("cluster %s e=%g gap=%d coarse=%d N=%d,%d,%d C1=%s C2=%s C3=%s U=%s E=%s",
					s.d.Name(), e, o.MaxGap, o.CoarsePoints, cp.N1, cp.N2, cp.N3,
					bitsOf(cp.C1), bitsOf(cp.C2), bitsOf(cp.C3), bitsOf(res.CaptureProb), bitsOf(res.EnergyRate)))
			}
		}
	}
	for _, c := range goldenChains(t) {
		ev, err := EvaluatePI(c.d, p, c.cp.policyFn())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lines = append(lines, fmt.Sprintf("evaluate %s U=%s E=%s cycle=%s horizon=%d",
			c.name, bitsOf(ev.CaptureProb), bitsOf(ev.EnergyRate), bitsOf(ev.ExpectedCycle), ev.Horizon))
	}
	// A trimodal gap law whose refinement carves a sleep window out of
	// the recovery tail; its hazard reaches 1 at the last support point,
	// so the belief holds exact zeros.
	d := mustEmpirical(t, []float64{0.3, 0, 0, 0, 0, 0, 0, 0.4, 0, 0, 0, 0, 0, 0, 0, 0, 0.3})
	const e = 0.15
	base, err := OptimizeClustering(d, e, p, ClusteringOptions{CoarsePoints: 8, MaxGap: 512})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RefineWindows(d, e, p, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	wins := make([]string, len(ref.Policy.Windows))
	for i, w := range ref.Policy.Windows {
		wins[i] = fmt.Sprintf("%d+%d", w.Start, w.Len)
	}
	b := ref.Policy.Base
	lines = append(lines, fmt.Sprintf("refine %s e=%g N=%d,%d,%d C1=%s C2=%s C3=%s windows=[%s] U=%s E=%s",
		d.Name(), e, b.N1, b.N2, b.N3, bitsOf(b.C1), bitsOf(b.C2), bitsOf(b.C3),
		strings.Join(wins, " "), bitsOf(ref.CaptureProb), bitsOf(ref.EnergyRate)))
	return lines
}

// TestPIGolden pins the partial-information solver bit for bit:
// OptimizeClustering on three distributions at three rates each (base
// and gap-capped searches), EvaluatePI on the golden chains including
// their Horizon, and one RefineWindows result. Any change to the
// solver's arithmetic or search order shows up here. Rewrite the file
// with `go test ./internal/core -run TestPIGolden -update` only when a
// change is meant to move the solver's results.
func TestPIGolden(t *testing.T) {
	got := strings.Join(piGoldenLines(t), "\n") + "\n"
	path := filepath.FromSlash(piGoldenPath)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	for i := 0; i < len(want) || i < len(have); i++ {
		var w, h string
		if i < len(want) {
			w = want[i]
		}
		if i < len(have) {
			h = have[i]
		}
		if w != h {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, h, w)
		}
	}
}
