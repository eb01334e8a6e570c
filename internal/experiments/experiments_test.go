package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"eventcap/internal/obs"
)

func quickOpts() Options { return Options{Quick: true, Seed: 42} }

// seriesByName finds a series in a table.
func (t *Table) seriesByName(name string) (Series, bool) {
	for _, s := range t.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

func TestRegistryUniqueIDs(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment: %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) < 14 {
		t.Fatalf("expected >= 14 experiments, got %d", len(seen))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig3a"); !ok {
		t.Fatal("fig3a not found")
	}
	if _, ok := ByID("nonexistent"); ok {
		t.Fatal("bogus id found")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "test",
		Title:  "render check",
		XLabel: "x",
		X:      []float64{1, 2.5},
		Series: []Series{{Name: "a,b", Y: []float64{0.1, 0.2}}},
		Notes:  []string{"hello"},
	}
	ascii := tab.ASCII()
	for _, want := range []string{"render check", "a,b", "0.1000", "note: hello"} {
		if !strings.Contains(ascii, want) {
			t.Errorf("ASCII output missing %q:\n%s", want, ascii)
		}
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"a,b"`) {
		t.Errorf("CSV must quote comma-containing names:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "x,") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Errorf("CSV should have header + 2 rows, got %d lines", len(lines))
	}
}

func TestFig3aShape(t *testing.T) {
	tab, err := runFig3a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	upper, ok := tab.seriesByName("Upper Bound")
	if !ok {
		t.Fatal("missing upper bound series")
	}
	bound := upper.Y[0]
	last := len(tab.X) - 1
	for _, name := range []string{"Bernoulli", "Periodic", "Uniform"} {
		s, ok := tab.seriesByName(name)
		if !ok {
			t.Fatalf("missing series %s", name)
		}
		// At the largest K the practical QoM must be near the analytic
		// optimum (the Fig. 3 convergence claim)...
		if math.Abs(s.Y[last]-bound) > 0.05 {
			t.Errorf("%s at K=%g: QoM %v far from bound %v", name, tab.X[last], s.Y[last], bound)
		}
		// ...and the tiny-K point clearly below it.
		if s.Y[0] > bound-0.02 {
			t.Errorf("%s at K=%g: QoM %v suspiciously close to bound %v", name, tab.X[0], s.Y[0], bound)
		}
	}
}

func TestFig3bShape(t *testing.T) {
	tab, err := runFig3b(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	upper, _ := tab.seriesByName("Upper Bound")
	last := len(tab.X) - 1
	for _, name := range []string{"Bernoulli", "Periodic", "Uniform"} {
		s, ok := tab.seriesByName(name)
		if !ok {
			t.Fatalf("missing series %s", name)
		}
		if math.Abs(s.Y[last]-upper.Y[last]) > 0.06 {
			t.Errorf("%s: final QoM %v far from bound %v", name, s.Y[last], upper.Y[last])
		}
	}
}

func TestFig4aShape(t *testing.T) {
	tab, err := runFig4a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := tab.seriesByName("pi'_PI")
	ag, _ := tab.seriesByName("pi_AG")
	pe, _ := tab.seriesByName("pi_PE")
	for i := range tab.X {
		if cl.Y[i] < ag.Y[i]-0.03 || cl.Y[i] < pe.Y[i]-0.03 {
			t.Errorf("c=%g: clustering %v below a baseline (AG %v, PE %v)",
				tab.X[i], cl.Y[i], ag.Y[i], pe.Y[i])
		}
	}
	// Rising in c.
	if cl.Y[len(cl.Y)-1] < cl.Y[0] {
		t.Error("clustering QoM should rise with recharge")
	}
}

func TestFig5bParityInRegime(t *testing.T) {
	tab, err := runFig5b(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := tab.seriesByName("pi'_PI")
	eb, _ := tab.seriesByName("pi_EBCW")
	// Largest a (0.8 in quick mode) with b=0.7 is inside the a,b>0.5
	// regime of [6]: near parity.
	last := len(tab.X) - 1
	if math.Abs(cl.Y[last]-eb.Y[last]) > 0.1 {
		t.Errorf("a=%g b=0.7: clustering %v vs EBCW %v should be close",
			tab.X[last], cl.Y[last], eb.Y[last])
	}
}

func TestFig6aShape(t *testing.T) {
	tab, err := runFig6a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	mfi, _ := tab.seriesByName("M-FI")
	mpi, _ := tab.seriesByName("M-PI")
	ag, _ := tab.seriesByName("pi_AG")
	pe, _ := tab.seriesByName("pi_PE")
	last := len(tab.X) - 1
	if mfi.Y[last] < mpi.Y[last]-0.03 {
		t.Errorf("M-FI %v should be at least M-PI %v", mfi.Y[last], mpi.Y[last])
	}
	for i := range tab.X {
		if mpi.Y[i] < ag.Y[i]-0.05 || mpi.Y[i] < pe.Y[i]-0.05 {
			t.Errorf("N=%g: M-PI %v below baseline (AG %v, PE %v)", tab.X[i], mpi.Y[i], ag.Y[i], pe.Y[i])
		}
	}
	// All policies improve with more sensors.
	if mfi.Y[last] <= mfi.Y[0] {
		t.Error("M-FI should improve with N")
	}
}

func TestAblationLPZeroGap(t *testing.T) {
	tab, err := runAblationLP(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	diff, ok := tab.seriesByName("max |diff|")
	if !ok {
		t.Fatal("missing diff series")
	}
	for i, d := range diff.Y {
		if d > 1e-6 {
			t.Errorf("e=%g: greedy-LP gap %v", tab.X[i], d)
		}
	}
}

func TestAblationWindowsNonNegativeGain(t *testing.T) {
	tab, err := runAblationWindows(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	gain, _ := tab.seriesByName("gain")
	for i, g := range gain.Y {
		if g < -1e-9 {
			t.Errorf("e=%g: negative refinement gain %v", tab.X[i], g)
		}
	}
}

func TestAblationPOMDPShape(t *testing.T) {
	tab, err := runAblationPOMDP(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	beliefs, _ := tab.seriesByName("beliefs")
	exact, _ := tab.seriesByName("exact")
	vector, _ := tab.seriesByName("vector")
	prev := 0.0
	for i := range tab.X {
		if beliefs.Y[i] < prev {
			t.Error("information-state count must not shrink with horizon")
		}
		prev = beliefs.Y[i]
		if vector.Y[i] > exact.Y[i]+1e-9 {
			t.Errorf("horizon %g: static vector %v beats exact optimum %v",
				tab.X[i], vector.Y[i], exact.Y[i])
		}
	}
}

func TestAblationPoissonParity(t *testing.T) {
	tab, err := runAblationPoisson(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := tab.seriesByName("pi'_PI")
	ag, _ := tab.seriesByName("pi_AG")
	for i := range tab.X {
		if math.Abs(cl.Y[i]-ag.Y[i]) > 0.1 {
			t.Errorf("c=%g: memoryless events but clustering %v and aggressive %v diverge",
				tab.X[i], cl.Y[i], ag.Y[i])
		}
	}
}

func TestAblationRechargeConvergence(t *testing.T) {
	tab, err := runAblationRecharge(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.X) - 1
	// The paper's three processes agree tightly at the largest K; the
	// bursty extensions (clipped Gaussian, on/off) converge too but need
	// K and T beyond quick-mode settings, so get a loose bound here.
	var vals []float64
	for _, s := range tab.Series {
		vals = append(vals, s.Y[last])
	}
	for i, v := range vals[:3] {
		if math.Abs(v-vals[0]) > 0.06 {
			t.Errorf("paper recharge process %d disagrees at large K: %v", i, vals)
		}
	}
	for i, v := range vals[3:] {
		if math.Abs(v-vals[0]) > 0.15 {
			t.Errorf("extension recharge process %d too far at large K: %v", i, vals)
		}
	}
}

func TestAblationLoadBalance(t *testing.T) {
	tab, err := runAblationLoadBalance(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := tab.seriesByName("Weibull(40,3)")
	det, _ := tab.seriesByName("Deterministic(2)")
	// N=2 (first point): adversarial case wildly imbalanced, Weibull not.
	if det.Y[0] < 1 {
		t.Errorf("deterministic-2 with N=2 should be fully imbalanced, got %v", det.Y[0])
	}
	if wb.Y[0] > 0.5 {
		t.Errorf("Weibull round robin should be fairly balanced, got %v", wb.Y[0])
	}
}

func TestAblationAdaptiveLearningCurve(t *testing.T) {
	tab, err := runAblationAdaptive(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := tab.seriesByName("oracle (known dist)")
	adaptive, _ := tab.seriesByName("adaptive (learned)")
	blind, _ := tab.seriesByName("aggressive (blind)")
	last := len(tab.X) - 1
	// At the longest horizon the learner closes most of the gap.
	if adaptive.Y[last] < blind.Y[last] {
		t.Errorf("adaptive %v below blind %v at T=%g", adaptive.Y[last], blind.Y[last], tab.X[last])
	}
	if adaptive.Y[last] > oracle.Y[last]+0.05 {
		t.Errorf("adaptive %v above oracle %v — impossible", adaptive.Y[last], oracle.Y[last])
	}
}

func TestAblationFaultsShape(t *testing.T) {
	tab, err := runAblationFaults(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := tab.seriesByName("M-FI round robin")
	un, _ := tab.seriesByName("uncoordinated")
	// No failures: coordination wins (or ties).
	if rr.Y[0] < un.Y[0]-0.05 {
		t.Errorf("healthy round robin %v should not lose to uncoordinated %v", rr.Y[0], un.Y[0])
	}
	// Failures hurt round robin monotonically.
	last := len(tab.X) - 1
	if rr.Y[last] >= rr.Y[0] {
		t.Errorf("failures did not hurt round robin: %v", rr.Y)
	}
}

func TestAblationMultiPoIShape(t *testing.T) {
	tab, err := runAblationMultiPoI(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	analytic, _ := tab.seriesByName("analytic")
	index, _ := tab.seriesByName("max-hazard index")
	blind, _ := tab.seriesByName("round robin")
	for i := range tab.X {
		if math.Abs(index.Y[i]-analytic.Y[i]) > 0.07 {
			t.Errorf("e=%g: simulated index %v far from analytic %v", tab.X[i], index.Y[i], analytic.Y[i])
		}
		if index.Y[i] < blind.Y[i] {
			t.Errorf("e=%g: index policy %v below blind cycling %v", tab.X[i], index.Y[i], blind.Y[i])
		}
	}
}

// TestSolveSpansForkLanes: every policy solve of a figure runs in a
// "solve" span on a lane of its own, since sweep points solve
// concurrently, and every simulation in a "sim.run" span. fig4b's three
// quick sweep points each solve a base and a gap-capped clustering
// policy in one solve (one evaluator serves both); fig6a's three add a
// greedy FI solve. ablation-windows solves and refines once per rate;
// ablation-multipoi calibrates once per rate and simulates two
// policies. ablation-lp solves greedy and the LP in one cell per rate
// and law (3 × 2), and ablation-pomdp solves one POMDP per horizon (3).
func TestSolveSpansForkLanes(t *testing.T) {
	for _, c := range []struct {
		id         string
		want, runs int
	}{
		{"fig4b", 3, 11}, {"fig6a", 6, 12}, {"ablation-windows", 2, 0}, {"ablation-multipoi", 2, 4},
		{"ablation-lp", 6, 0}, {"ablation-pomdp", 3, 0},
	} {
		e, ok := ByID(c.id)
		if !ok {
			t.Fatalf("%s not registered", c.id)
		}
		root := obs.BeginSpan(c.id)
		opts := quickOpts()
		opts.Span = root
		if _, err := e.Run(opts); err != nil {
			t.Fatal(err)
		}
		root.End()
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, root); err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Tid  int64  `json:"tid"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
			t.Fatalf("%s: decoding the span trace: %v", c.id, err)
		}
		var rootLane int64
		lanes := make(map[int64]bool)
		solves, runs := 0, 0
		for _, ev := range trace.TraceEvents {
			switch ev.Name {
			case c.id:
				rootLane = ev.Tid
			case "solve":
				solves++
				lanes[ev.Tid] = true
			case "sim.run":
				runs++
			}
		}
		if solves != c.want || runs != c.runs {
			t.Errorf("%s: %d solve and %d sim.run spans, want %d and %d", c.id, solves, runs, c.want, c.runs)
		}
		if len(lanes) != solves || lanes[rootLane] {
			t.Errorf("%s: %d solve spans on %d lanes (root lane %d among them: %t), want one lane each", c.id, solves, len(lanes), rootLane, lanes[rootLane])
		}
	}
}
