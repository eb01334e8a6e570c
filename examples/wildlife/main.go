// Wildlife camera trap: a partial-information scenario. An animal's
// visits to a waterhole leave no trace a sleeping camera could see, so
// the sensor learns about a visit only while active — the paper's POMDP
// setting. Visits recur with heavy-tailed gaps (Pareto): right after a
// sighting another is unlikely, then the hazard decays slowly.
//
// The example shows the clustering policy's three regions in action —
// cooling, hot, and the recovery region that rescues the schedule after a
// missed visit — and compares against the aggressive baseline and the
// window-refined policy.
//
// Run with: go run ./examples/wildlife
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/sim"
	"eventcap/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wildlife:", err)
		os.Exit(1)
	}
}

func run() error {
	// One slot = 10 minutes. Visits recur at least 3h apart, heavy tail.
	visits, err := dist.NewPareto(2, 18)
	if err != nil {
		return err
	}
	params := core.DefaultParams()
	const e = 0.3
	fmt.Printf("visit process: %s, mean gap %.1f slots\n", visits.Name(), visits.Mean())

	// Cap the cooling gap at ~16 mean cycles: the unconstrained analytic
	// optimum for heavy tails is a "lottery" policy (rare, very long
	// blackouts) that a finite battery executes poorly — see
	// EXPERIMENTS.md, "Known deviations".
	opts := core.ClusteringOptions{MaxGap: 16 * int(visits.Mean()+1)}
	pi, err := core.OptimizeClustering(visits, e, params, opts)
	if err != nil {
		return err
	}
	fmt.Printf("\nclustering policy pi'_PI(e=%.2f):\n", e)
	fmt.Printf("  cooling  [1, %d): sleep while a visit is impossible/unlikely\n", pi.Policy.N1)
	fmt.Printf("  hot      [%d, %d]: watch where the hazard concentrates\n", pi.Policy.N1, pi.Policy.N2)
	fmt.Printf("  cooling  (%d, %d): recharge\n", pi.Policy.N2, pi.Policy.N3)
	fmt.Printf("  recovery [%d, ∞): after a miss, stay on until a sighting renews the schedule\n", pi.Policy.N3)
	fmt.Printf("  analytic U = %.4f at energy rate %.4f\n", pi.CaptureProb, pi.EnergyRate)

	// The paper's refinement: extra transition points after c_n3.
	refined, err := core.RefineWindows(visits, e, params, pi, 2)
	if err != nil {
		return err
	}
	fmt.Printf("  window-refined U = %.4f (%d extra sleep windows)\n",
		refined.CaptureProb, len(refined.Policy.Windows))

	// Simulate, then show a short activity strip around a miss/recovery.
	cfg := sim.Config{
		Dist:   visits,
		Params: params,
		NewRecharge: func() energy.Recharge {
			r, _ := energy.NewBernoulli(0.5, e/0.5)
			return r
		},
		NewPolicy:  func(int) sim.Policy { return &sim.VectorPI{Vector: pi.Vector} },
		BatteryCap: 800,
		Slots:      1_000_000,
		Seed:       11,
		Info:       sim.PartialInfo,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	strip, err := activityStrip(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("\nsimulated over %d slots: %d visits, %d photographed → QoM %.4f\n",
		res.Slots, res.Events, res.Captures, res.QoM)

	agg, err := sim.Run(sim.Config{
		Dist:   visits,
		Params: params,
		NewRecharge: func() energy.Recharge {
			r, _ := energy.NewBernoulli(0.5, e/0.5)
			return r
		},
		NewPolicy:  func(int) sim.Policy { return sim.Aggressive{} },
		BatteryCap: 800,
		Slots:      1_000_000,
		Seed:       11,
		Info:       sim.PartialInfo,
	})
	if err != nil {
		return err
	}
	fmt.Printf("aggressive baseline under the same energy: QoM %.4f\n", agg.QoM)

	fmt.Printf("\nactivity strip from the first miss (a=active, .=asleep, C=capture, !=missed):\n  %s\n", strip)
	fmt.Println("\nnote the recovery: after '!', the camera stays on ('aaaa…') until the next 'C',")
	fmt.Println("then the cooling/hot rhythm ('....aaa') resumes — exactly Eq. (11)'s structure.")
	return nil
}

// activityStrip replays the start of cfg's run on the reference engine
// under a full slot trace and renders 120 slots from the first missed
// visit after slot 100. The reference engine draws the same streams
// whatever the horizon, so a short traced run shows exactly the long
// run's first slots.
func activityStrip(cfg sim.Config) (string, error) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	cfg.Slots = 20_000
	cfg.Engine = sim.EngineReference
	cfg.Tracer = w
	if _, err := sim.Run(cfg); err != nil {
		return "", err
	}
	if err := w.Close(); err != nil {
		return "", err
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		return "", err
	}
	var strip strings.Builder
	recording := false
	for strip.Len() < 120 {
		f, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
		if f.Kind != trace.FrameSlot {
			continue
		}
		flags := f.Rec.Flags
		if !recording && flags&trace.FlagEvent != 0 && flags&trace.FlagCaptured == 0 && f.Rec.Slot > 100 {
			recording = true
		}
		if !recording {
			continue
		}
		switch {
		case flags&trace.FlagCaptured != 0:
			strip.WriteByte('C') // captured visit
		case flags&trace.FlagEvent != 0:
			strip.WriteByte('!') // missed visit
		case flags&trace.FlagActive != 0:
			strip.WriteByte('a') // active, nothing there
		default:
			strip.WriteByte('.') // asleep
		}
	}
	return strip.String(), nil
}
