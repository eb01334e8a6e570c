package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eventcap/internal/obs"
	"eventcap/internal/trace"
)

// stripTraceLines drops the trace summary line so traced and untraced
// outputs can be compared for the RNG-neutrality check.
func stripTraceLines(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "trace ") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestTraceFlagsAreOutputNeutral: -trace must not change a single
// simulation output line, on both engines.
func TestTraceFlagsAreOutputNeutral(t *testing.T) {
	for _, kernel := range []string{"off", "on"} {
		base := []string{"-T", "50000", "-seed", "9", "-kernel", kernel}
		var want strings.Builder
		if err := run(base, &want); err != nil {
			t.Fatal(err)
		}
		tracePath := filepath.Join(t.TempDir(), "run.evtrace")
		var got strings.Builder
		args := append(append([]string{}, base...), "-trace", tracePath)
		if err := run(args, &got); err != nil {
			t.Fatal(err)
		}
		if g := stripTraceLines(got.String()); g != want.String() {
			t.Errorf("kernel=%s: tracing changed the output:\n--- traced ---\n%s--- untraced ---\n%s", kernel, g, want.String())
		}
	}
}

// TestTraceWritesReplayableManifest: the .manifest.json sidecar must
// verify against the trace exactly the way cmd/tracetool replay does.
func TestTraceWritesReplayableManifest(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "run.evtrace")
	var sb strings.Builder
	if err := run([]string{"-T", "50000", "-seed", "9", "-trace", tracePath}, &sb); err != nil {
		t.Fatal(err)
	}
	man, err := obs.ReadManifest(tracePath + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if man.Schema != obs.ManifestSchema || man.Experiment != "simulate" {
		t.Fatalf("manifest identity: schema=%q experiment=%q", man.Schema, man.Experiment)
	}
	if man.Trace == nil || man.Trace.File != "run.evtrace" {
		t.Fatalf("manifest trace block: %+v", man.Trace)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.SHA256Hex(data); got != man.Trace.SHA256 {
		t.Fatalf("trace hash %s != manifest %s", got, man.Trace.SHA256)
	}
	sum, err := trace.Replay(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m := man.Metrics
	if sum.Runs != 1 || float64(sum.Events) != m["sim.events"] || float64(sum.Captures) != m["sim.captures"] ||
		float64(sum.MissAsleep) != m["sim.miss.asleep"] || float64(sum.MissNoEnergy) != m["sim.miss.noenergy"] {
		t.Errorf("replay %+v disagrees with manifest metrics %v", sum, m)
	}
}

// TestSpansFlagIsOutputNeutral: the phase tracer must not change a
// single simulation output line, and the spans file must be valid
// trace-event JSON covering the engine's phases.
func TestSpansFlagIsOutputNeutral(t *testing.T) {
	base := []string{"-T", "50000", "-seed", "9", "-kernel", "on"}
	var want strings.Builder
	if err := run(base, &want); err != nil {
		t.Fatal(err)
	}
	spansPath := filepath.Join(t.TempDir(), "spans.json")
	var got strings.Builder
	if err := run(append(append([]string{}, base...), "-spans", spansPath), &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("-spans changed the output:\n--- with ---\n%s--- without ---\n%s", got.String(), want.String())
	}
	data, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("spans file is not trace-event JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, phase := range []string{"simulate", "compile", "exec.kernel"} {
		if !names[phase] {
			t.Errorf("spans file missing a %q span (have %v)", phase, names)
		}
	}
}

// TestTraceManifestCarriesPhases: the sidecar written with -trace now
// embeds the run's phase breakdown (schema v3).
func TestTraceManifestCarriesPhases(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "run.evtrace")
	var sb strings.Builder
	if err := run([]string{"-T", "50000", "-seed", "9", "-trace", tracePath}, &sb); err != nil {
		t.Fatal(err)
	}
	man, err := obs.ReadManifest(tracePath + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if man.Phases == nil || man.Phases.Name != "simulate" || len(man.Phases.Phases) == 0 {
		t.Fatalf("manifest phases = %+v", man.Phases)
	}
}

// TestSimulateTraceWithBatchRefused: the trace would hold replication 0
// while the manifest's counters sum every replication.
func TestSimulateTraceWithBatchRefused(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-T", "1000", "-batch", "2", "-trace", filepath.Join(t.TempDir(), "run.evtrace")}, &sb)
	if err == nil || !strings.Contains(err.Error(), "replication 0") {
		t.Fatalf("-trace with -batch 2: error %v, want the refusal", err)
	}
}

// TestConfigDigestCoversResultFlags: a flag that shapes the results
// changes the config digest of the run's -trace sidecar, and an
// observation flag does not.
func TestConfigDigestCoversResultFlags(t *testing.T) {
	digest := func(extra ...string) string {
		t.Helper()
		tracePath := filepath.Join(t.TempDir(), "run.evtrace")
		var sb strings.Builder
		if err := run(append([]string{"-T", "2000", "-seed", "9", "-trace", tracePath}, extra...), &sb); err != nil {
			t.Fatal(err)
		}
		man, err := obs.ReadManifest(tracePath + ".manifest.json")
		if err != nil {
			t.Fatal(err)
		}
		return man.ConfigDigest
	}
	want := digest()
	for _, extra := range [][]string{
		{"-policy", "aggressive"},
		{"-k", "50"},
		{"-dist", "pareto:2,10"},
	} {
		if got := digest(extra...); got == want {
			t.Errorf("%v: digest unchanged (%s)", extra, got)
		}
	}
	for _, extra := range [][]string{
		{"-workers", "1"},
		{"-spans", filepath.Join(t.TempDir(), "spans.json")},
	} {
		if got := digest(extra...); got != want {
			t.Errorf("%v: digest %s, want %s", extra, got, want)
		}
	}
}

// TestDecoupledFleetEngines: an uncoordinated partial-information fleet
// (-mode all -info partial, n > 1) runs on the reference engine, so
// -kernel auto and -kernel off print the same bytes, and forcing the
// kernel, for one run or a batch, fails with the kernel's mode reason.
func TestDecoupledFleetEngines(t *testing.T) {
	const reason = "3 sensors without round-robin coordination"
	args := []string{"-n", "3", "-mode", "all", "-info", "partial", "-recharge", "constant:0.5", "-T", "20000", "-policy", "clustering"}
	outs := map[string]string{}
	for _, kernel := range []string{"auto", "off"} {
		var sb strings.Builder
		if err := run(append(append([]string{}, args...), "-kernel", kernel), &sb); err != nil {
			t.Fatalf("-kernel %s: %v", kernel, err)
		}
		outs[kernel] = sb.String()
	}
	if outs["auto"] != outs["off"] {
		t.Errorf("-kernel auto and off differ:\n--- auto ---\n%s--- off ---\n%s", outs["auto"], outs["off"])
	}
	if strings.Contains(outs["off"], "captured 0\n") {
		t.Errorf("clustering fleet captured nothing; comparison vacuous:\n%s", outs["off"])
	}
	for _, forced := range [][]string{{"-kernel", "on"}, {"-kernel", "on", "-batch", "2"}} {
		var sb strings.Builder
		err := run(append(append([]string{}, args...), forced...), &sb)
		if err == nil || !strings.Contains(err.Error(), reason) {
			t.Errorf("%v: error %v, want one naming %q", forced, err, reason)
		}
	}
}

// TestBlockFleetEngines: a block fleet (-mode blocks, the periodic
// baseline rotating θ2-slot blocks) runs on the fleet kernel, which
// reproduces the reference engine byte for byte under deterministic
// recharge, so -kernel auto, off and on print the same result lines.
// The engine-specific lines differ: the engine name, the energy line's
// battery samples (the kernel samples every stride-th awake slot) and
// the kernel's sleep runs.
func TestBlockFleetEngines(t *testing.T) {
	args := []string{"-n", "3", "-mode", "blocks", "-policy", "periodic", "-recharge", "constant:0.5", "-T", "20000"}
	outs := map[string]string{}
	for _, kernel := range []string{"auto", "off", "on"} {
		var sb strings.Builder
		if err := run(append(append([]string{}, args...), "-kernel", kernel), &sb); err != nil {
			t.Fatalf("-kernel %s: %v", kernel, err)
		}
		var kept []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if !strings.HasPrefix(line, "engine ") && !strings.HasPrefix(line, "energy ") && !strings.HasPrefix(line, "kernel ") {
				kept = append(kept, line)
			}
		}
		outs[kernel] = strings.Join(kept, "\n")
	}
	for _, kernel := range []string{"auto", "on"} {
		if outs[kernel] != outs["off"] {
			t.Errorf("-kernel %s and off differ:\n--- %s ---\n%s--- off ---\n%s", kernel, kernel, outs[kernel], outs["off"])
		}
	}
	if strings.Contains(outs["off"], "captured 0\n") {
		t.Errorf("periodic fleet captured nothing; comparison vacuous:\n%s", outs["off"])
	}
}

// TestGreedyRejectsPartialInfo: the greedy policy never wakes without
// full information, so -info partial with it (the default policy) is
// refused with a pointer to the clustering policy instead of printing an
// all-asleep run.
func TestGreedyRejectsPartialInfo(t *testing.T) {
	for _, args := range [][]string{
		{"-info", "partial", "-T", "1000"},
		{"-info", "partial", "-policy", "greedy", "-n", "3", "-T", "1000"},
	} {
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil || !strings.Contains(err.Error(), "policy greedy") || !strings.Contains(err.Error(), "-policy clustering") {
			t.Errorf("%v: error %v, want one naming policy greedy and suggesting -policy clustering", args, err)
		}
	}
}
