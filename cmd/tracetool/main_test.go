package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eventcap/internal/obs"
	"eventcap/internal/stats"
	"eventcap/internal/trace"
)

// writeSample writes a small hand-built two-run trace (one reference
// run, one kernel run with a sleep span) plus a matching manifest,
// and returns their paths. The trace's ground truth: 5 events,
// 2 captures, 2 asleep misses, 1 noenergy miss, 1 wasted activation.
func writeSample(t *testing.T, dir string) (tracePath, manifestPath string) {
	t.Helper()
	tracePath = filepath.Join(dir, "sample.evtrace")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)

	w.RunStart(trace.RunInfo{Engine: trace.EngineReference, Sensors: 2, Seed: 1, Slots: 40, BatteryCap: 100, Cost: 3, Policy: "greedy", Dist: "uniform", Recharge: "bernoulli"})
	w.Rec(trace.Rec{Slot: 10, Sensor: 0, Engine: trace.EngineReference, Flags: trace.FlagEvent | trace.FlagActive | trace.FlagCaptured, H: 10, F: 10, Prob: 0.8, Battery: 90, Recharge: 1})
	w.Rec(trace.Rec{Slot: 20, Sensor: 1, Engine: trace.EngineReference, Flags: trace.FlagEvent | trace.FlagDenied, H: 10, F: 20, Prob: 1, Battery: 2})
	w.Rec(trace.Rec{Slot: 30, Sensor: -1, Engine: trace.EngineReference, Flags: trace.FlagEvent, H: 10, F: 30})
	w.Rec(trace.Rec{Slot: 35, Sensor: 0, Engine: trace.EngineReference, Flags: trace.FlagActive, H: 15, F: 25, Prob: 0.3, Battery: 80})
	w.RunEnd(trace.RunEnd{Events: 3, Captures: 1})

	w.RunStart(trace.RunInfo{Engine: trace.EngineKernel, Sensors: 1, Seed: 2, Slots: 60, BatteryCap: 200, Cost: 3, Policy: "threshold", Dist: "uniform", Recharge: "bernoulli"})
	w.Span(trace.Span{Start: 1, Len: 50, Events: 1, State: 1, Delivered: 25, Battery: 150})
	w.Rec(trace.Rec{Slot: 51, Sensor: 0, Engine: trace.EngineKernel, Flags: trace.FlagEvent | trace.FlagActive | trace.FlagCaptured, H: 1, F: 51, Prob: 0.9, Battery: 150, Recharge: 1})
	w.RunEnd(trace.RunEnd{Events: 2, Captures: 1})

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	man := &obs.Manifest{
		Experiment: "sample",
		CSV:        "sample.csv",
		Metrics: map[string]float64{
			"sim.events": 5, "sim.captures": 2,
			"sim.miss.asleep": 2, "sim.miss.noenergy": 1,
			"sim.wasted_activations": 1,
			"sim.runs.reference":     1, "sim.runs.kernel": 1,
		},
		Trace: &obs.TraceInfo{
			File:   "sample.evtrace",
			SHA256: w.SHA256(),
			Mode:   "full",
			Runs:   2, Records: 5, Spans: 1,
		},
	}
	manifestPath = filepath.Join(dir, "sample.manifest.json")
	if err := man.Write(manifestPath); err != nil {
		t.Fatal(err)
	}
	return tracePath, manifestPath
}

func TestRunRejectsUnknownSubcommand(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := run([]string{"bogus"}, &sb); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestDumpCSV(t *testing.T) {
	tracePath, _ := writeSample(t, t.TempDir())
	var sb strings.Builder
	if err := run([]string{"dump", tracePath}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// header + 2 run-start + 5 slots + 1 span + 2 run-end
	if len(lines) != 11 {
		t.Fatalf("dump produced %d lines, want 11:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "frame,run,slot,sensor") {
		t.Errorf("missing CSV header: %s", lines[0])
	}
	for _, want := range []string{"run-start,0", "slot,0,10,0,reference", "span,1,1", "run-end,1"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("dump output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestDumpJSONL(t *testing.T) {
	tracePath, _ := writeSample(t, t.TempDir())
	var sb strings.Builder
	if err := run([]string{"dump", "-format", "jsonl", tracePath}, &sb); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		kinds = append(kinds, row["frame"].(string))
	}
	want := []string{"run-start", "slot", "slot", "slot", "slot", "run-end", "run-start", "span", "slot", "run-end"}
	if len(kinds) != len(want) {
		t.Fatalf("frames %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("frame %d is %q, want %q", i, kinds[i], want[i])
		}
	}
}

func TestDumpRejectsBadFormat(t *testing.T) {
	tracePath, _ := writeSample(t, t.TempDir())
	var sb strings.Builder
	if err := run([]string{"dump", "-format", "xml", tracePath}, &sb); err == nil {
		t.Error("bad format accepted")
	}
}

func TestStats(t *testing.T) {
	tracePath, _ := writeSample(t, t.TempDir())
	var sb strings.Builder
	if err := run([]string{"stats", tracePath}, &sb); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Trace trace.StatsReport `json:"trace"`
		QoM   struct {
			Runs   []stats.Report `json:"runs"`
			Pooled stats.Report   `json:"pooled"`
		} `json:"qom"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("stats output did not parse: %v\n%s", err, sb.String())
	}
	if rep.Trace.Runs != 2 || len(rep.Trace.Regions) == 0 {
		t.Errorf("trace block: %+v", rep.Trace)
	}
	if len(rep.QoM.Runs) != 2 {
		t.Fatalf("qom runs: %+v", rep.QoM.Runs)
	}
	// Ground truth: run 0 has 3 events / 1 capture, run 1 has 2 / 1
	// (the span's event is a miss).
	if r := rep.QoM.Runs[0]; r.Events != 3 || r.Captures != 1 || r.Method != stats.MethodBatchMeans {
		t.Errorf("run 0 report: %+v", r)
	}
	if r := rep.QoM.Runs[1]; r.Events != 2 || r.Captures != 1 {
		t.Errorf("run 1 report: %+v", r)
	}
	p := rep.QoM.Pooled
	if p.Events != 5 || p.Captures != 2 || p.Mean != 0.4 || p.Method != stats.MethodPooled {
		t.Errorf("pooled report: %+v", p)
	}
}

// TestStatsManifestCheck: -manifest verifies the rebuilt estimate
// against the manifest's stats block, and fails on a doctored mean.
func TestStatsManifestCheck(t *testing.T) {
	tracePath, manifestPath := writeSample(t, t.TempDir())

	// The sample manifest has no stats block yet: that is an error.
	var sb strings.Builder
	if err := run([]string{"stats", "-manifest", manifestPath, tracePath}, &sb); err == nil {
		t.Fatal("manifest without stats block accepted")
	}

	addStats := func(mean float64) {
		t.Helper()
		man, err := obs.ReadManifest(manifestPath)
		if err != nil {
			t.Fatal(err)
		}
		man.Stats = &stats.Report{
			Method: stats.MethodPooled, Of: stats.MethodBatchMeans,
			Events: 5, Captures: 2, Mean: mean, Count: 2,
		}
		if err := man.Write(manifestPath); err != nil {
			t.Fatal(err)
		}
	}
	addStats(0.4)
	sb.Reset()
	if err := run([]string{"stats", "-manifest", manifestPath, tracePath}, &sb); err != nil {
		t.Fatalf("matching manifest rejected: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "trace stats match manifest") {
		t.Errorf("missing match confirmation:\n%s", sb.String())
	}

	addStats(0.5)
	sb.Reset()
	if err := run([]string{"stats", "-manifest", manifestPath, tracePath}, &sb); err == nil {
		t.Fatal("doctored mean accepted")
	}
	if !strings.Contains(sb.String(), "MISMATCH qom mean") {
		t.Errorf("missing mismatch report:\n%s", sb.String())
	}
}

func TestDiff(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "b"), 0o755); err != nil {
		t.Fatal(err)
	}
	a, _ := writeSample(t, dir)
	b, _ := writeSample(t, filepath.Join(dir, "b"))
	var sb strings.Builder
	if err := run([]string{"diff", a, b}, &sb); err != nil {
		t.Fatalf("identical traces reported as diverging: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "traces identical") {
		t.Errorf("diff output: %s", sb.String())
	}

	// A modified battery value must be reported as the first divergence.
	c := filepath.Join(dir, "c.evtrace")
	f, err := os.Create(c)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	w.RunStart(trace.RunInfo{Engine: trace.EngineReference, Sensors: 2, Seed: 1, Slots: 40, BatteryCap: 100, Cost: 3, Policy: "greedy", Dist: "uniform", Recharge: "bernoulli"})
	w.Rec(trace.Rec{Slot: 10, Sensor: 0, Engine: trace.EngineReference, Flags: trace.FlagEvent | trace.FlagActive | trace.FlagCaptured, H: 10, F: 10, Prob: 0.8, Battery: 91, Recharge: 1})
	w.RunEnd(trace.RunEnd{Events: 1, Captures: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sb.Reset()
	if err := run([]string{"diff", a, c}, &sb); err == nil {
		t.Fatalf("diverging traces reported identical:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "first divergence") {
		t.Errorf("diff output: %s", sb.String())
	}
}

func TestReplayMatchesManifest(t *testing.T) {
	_, manifestPath := writeSample(t, t.TempDir())
	var sb strings.Builder
	if err := run([]string{"replay", manifestPath}, &sb); err != nil {
		t.Fatalf("replay: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "replay matches manifest") {
		t.Errorf("replay output: %s", sb.String())
	}
}

func TestReplayDetectsMetricMismatch(t *testing.T) {
	_, manifestPath := writeSample(t, t.TempDir())
	man, err := obs.ReadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	man.Metrics["sim.captures"] = 7
	if err := man.Write(manifestPath); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"replay", manifestPath}, &sb); err == nil {
		t.Fatalf("doctored manifest passed replay:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "MISMATCH captures") {
		t.Errorf("replay output: %s", sb.String())
	}
}

func TestReplayDetectsHashMismatch(t *testing.T) {
	tracePath, manifestPath := writeSample(t, t.TempDir())
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	// Append a byte: the sha check must fail before any decoding.
	if err := os.WriteFile(tracePath, append(data, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"replay", manifestPath}, &sb); err == nil || !strings.Contains(err.Error(), "sha256") {
		t.Fatalf("tampered trace passed replay: %v", err)
	}
}

func TestReplayRequiresTraceBlock(t *testing.T) {
	dir := t.TempDir()
	man := &obs.Manifest{Experiment: "plain", CSV: "plain.csv"}
	path := filepath.Join(dir, "plain.manifest.json")
	if err := man.Write(path); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"replay", path}, &sb); err == nil || !strings.Contains(err.Error(), "no trace block") {
		t.Fatalf("manifest without trace block accepted: %v", err)
	}
}
