package sim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eventcap/internal/energy"
	"eventcap/internal/trace"
)

var updateEngineGolden = flag.Bool("update", false, "rewrite testdata/engine_golden.txt from the current engines")

const engineGoldenPath = "testdata/engine_golden.txt"

// f64 renders a float64 as its exact bit pattern followed by a readable
// value; the bits are what the golden comparison pins.
func f64(v float64) string {
	return fmt.Sprintf("%016x(%.17g)", math.Float64bits(v), v)
}

// goldenResult renders every physical field of a Result: the totals,
// the QoM's bits, each sensor block, and the Metrics.
func goldenResult(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d captures=%d qom=%s", res.Events, res.Captures, f64(res.QoM))
	for i, s := range res.Sensors {
		fmt.Fprintf(&b, " s%d={act=%d cap=%d den=%d used=%s lost=%s final=%s}",
			i, s.Activations, s.Captures, s.Denied, f64(s.EnergyConsumed), f64(s.OverflowLost), f64(s.FinalBattery))
	}
	m := res.Metrics
	fmt.Fprintf(&b, " metrics={asleep=%d noenergy=%d wasted=%d outage=%d observed=%d fracsum=%s hist=%v runs=%d skipped=%d}",
		m.MissAsleep, m.MissNoEnergy, m.WastedActivations, m.EnergyOutageSlots, m.ObservedSlots,
		f64(m.BatteryFracSum), m.BatteryHist, m.KernelRuns, m.KernelSlotsFastForwarded)
	return b.String()
}

// engineGoldenLines runs every pinned compiled-engine configuration and
// renders one line per run.
func engineGoldenLines(t *testing.T) []string {
	bernoulli := bernoulliFactory(t, 0.5, 1)
	periodic := func() energy.Recharge {
		r, err := energy.NewPeriodic(5, 10)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var lines []string
	add := func(label string, cfg Config) {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		lines = append(lines, label+" "+goldenResult(res))
	}

	for _, kc := range kernelCases(t) {
		for _, k := range []float64{7, 100} {
			cfg := kernelBaseConfig(t, kc, bernoulli, k, 1)
			cfg.Engine = EngineKernel
			add(fmt.Sprintf("kernel %s bernoulli K=%g", kc.name, k), cfg)

			fleet := multiKernelConfig(t, kc, bernoulli, 3, k, 2)
			fleet.Engine = EngineKernel
			add(fmt.Sprintf("fleet-kernel N=3 %s bernoulli K=%g", kc.name, k), fleet)
		}
	}

	// The labels keep the names the lines had when Metrics could be
	// switched off (only the periodic batches ran without).
	batches := []struct {
		name string
		rech func() energy.Recharge
	}{
		{"bernoulli metrics", bernoulli},
		{"periodic", periodic},
	}
	for _, kc := range kernelCases(t) {
		for _, bc := range batches {
			for _, n := range []int{1, 3} {
				cfg := multiKernelConfig(t, kc, bc.rech, n, 7, 3)
				cfg.Slots = 20_000
				cfg.Engine = EngineKernel
				cfg.Batch = 4
				cfg.Workers = 2
				add(fmt.Sprintf("batch N=%d %s %s K=7", n, kc.name, bc.name), cfg)
			}
		}
	}

	for _, kc := range kernelCases(t)[:2] {
		cfg := kernelBaseConfig(t, kc, bernoulli, 100, 5)
		cfg.Slots = 20_000
		cfg.Engine = EngineKernel
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		cfg.Tracer = w
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("evtrace kernel %s bernoulli K=100 bytes=%d sha256=%x",
			kc.name, buf.Len(), sha256.Sum256(buf.Bytes())))
	}
	return lines
}

// TestEngineGolden pins the compiled engines bit for bit: the kernel for
// one sensor and a round-robin fleet, a compiled batch's replications
// (single sensor and fleet), and the bytes of a traced
// kernel run. Under Bernoulli recharge the compiled engines are
// otherwise only checked against each other or in distribution, so this
// is what catches a change that shifts their draws. Rewrite the file
// with `go test ./internal/sim -run TestEngineGolden -update` only when
// a change is meant to move the engines' results.
func TestEngineGolden(t *testing.T) {
	got := strings.Join(engineGoldenLines(t), "\n") + "\n"
	path := filepath.FromSlash(engineGoldenPath)
	if *updateEngineGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
