package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eventcap/internal/obs"
	"eventcap/internal/trace"
)

func TestListPrintsAllExperiments(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range []string{"fig3a", "fig6b", "ablation-lp", "ablation-multipoi"} {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %s:\n%s", id, out)
		}
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-run", "ablation-lp", "-quick", "-out", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "ablation-lp.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "greedy W(40,3)") {
		t.Errorf("CSV missing expected series:\n%s", data)
	}
	if !strings.Contains(sb.String(), "ablation-lp —") {
		t.Errorf("missing ASCII table:\n%s", sb.String())
	}
}

// TestWorkersFlagByteIdenticalCSV: -workers is a wall-clock knob only;
// the CSVs it writes are byte-identical at any pool size.
func TestWorkersFlagByteIdenticalCSV(t *testing.T) {
	csvFor := func(workers string) []byte {
		t.Helper()
		dir := t.TempDir()
		var sb strings.Builder
		args := []string{"-run", "fig3a", "-quick", "-seed", "3", "-out", dir, "-workers", workers}
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "fig3a.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	base := csvFor("1")
	for _, w := range []string{"4", "8"} {
		if got := csvFor(w); !bytes.Equal(got, base) {
			t.Errorf("-workers %s CSV differs from -workers 1:\n%s\nvs\n%s", w, got, base)
		}
	}
}

// TestRunWritesManifest: every CSV gets a JSON sidecar whose hash
// matches the CSV bytes and whose metrics block satisfies the event
// classification invariant. An unbatched run keeps the digest scheme
// of every manifest in results/; a batched one records its batch in
// the config block and in the digest.
func TestRunWritesManifest(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-run", "fig3a", "-quick", "-seed", "2", "-out", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	man, err := obs.ReadManifest(filepath.Join(dir, "fig3a.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if man.Experiment != "fig3a" || man.CSV != "fig3a.csv" {
		t.Fatalf("manifest identity: %+v", man)
	}
	csv, err := os.ReadFile(filepath.Join(dir, man.CSV))
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.SHA256Hex(csv); got != man.CSVSHA256 {
		t.Errorf("csv hash %s != manifest %s", got, man.CSVSHA256)
	}
	if man.Config.Seed != 2 || !man.Config.Quick || man.Config.Engine != "auto" || man.Config.Batch != 0 {
		t.Errorf("manifest config: %+v", man.Config)
	}
	if want := obs.DigestConfig("experiment=fig3a", "slots=0", "seed=2", "quick=true", "engine=auto"); man.ConfigDigest != want {
		t.Errorf("manifest digest %s, want %s", man.ConfigDigest, want)
	}
	if man.GoVersion == "" || man.BinaryVersion == "" {
		t.Errorf("manifest provenance: go=%q bin=%q", man.GoVersion, man.BinaryVersion)
	}
	m := man.Metrics
	events, captures := m["sim.events"], m["sim.captures"]
	if events == 0 {
		t.Fatal("manifest metrics recorded no events")
	}
	if sum := captures + m["sim.miss.asleep"] + m["sim.miss.noenergy"]; sum != events {
		t.Errorf("captures %v + misses = %v, want events %v", captures, sum, events)
	}
	if man.Process["pool.jobs.done"] == 0 {
		t.Error("manifest process block recorded no pool jobs")
	}

	bdir := t.TempDir()
	if err := run([]string{"-run", "fig3a", "-quick", "-seed", "2", "-out", bdir, "-batch", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	batched, err := obs.ReadManifest(filepath.Join(bdir, "fig3a.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if batched.Config.Batch != 2 || batched.ConfigDigest == man.ConfigDigest {
		t.Errorf("-batch 2 manifest: config %+v, digest %s (unbatched %s)", batched.Config, batched.ConfigDigest, man.ConfigDigest)
	}
}

func TestRunRejectsUnknownID(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "nope"}, &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestTraceFlagKeepsCSVByteIdentical: slot-level tracing is RNG-neutral
// end to end — the CSV bytes must not change.
func TestTraceFlagKeepsCSVByteIdentical(t *testing.T) {
	csvFor := func(extra ...string) []byte {
		t.Helper()
		dir := t.TempDir()
		var sb strings.Builder
		args := append([]string{"-run", "fig3a", "-quick", "-slots", "20000", "-seed", "7", "-out", dir}, extra...)
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "fig3a.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	base := csvFor()
	if got := csvFor("-trace"); !bytes.Equal(got, base) {
		t.Errorf("-trace changed the CSV:\n%s\nvs\n%s", got, base)
	}
}

// TestTraceManifestVerifies: the trace block in the manifest must point
// at a trace whose hash matches and whose replay reproduces the
// manifest's metrics exactly (the artifact cmd/tracetool replay gates
// on in CI).
func TestTraceManifestVerifies(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-run", "fig3a", "-quick", "-slots", "20000", "-seed", "7", "-out", dir, "-trace"}, &sb); err != nil {
		t.Fatal(err)
	}
	man, err := obs.ReadManifest(filepath.Join(dir, "fig3a.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if man.Schema != obs.ManifestSchema {
		t.Fatalf("manifest schema %q", man.Schema)
	}
	if man.Trace == nil || man.Trace.File != "fig3a.evtrace" {
		t.Fatalf("manifest trace block: %+v", man.Trace)
	}
	data, err := os.ReadFile(filepath.Join(dir, man.Trace.File))
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
	if float64(sum.Events) != m["sim.events"] || float64(sum.Captures) != m["sim.captures"] ||
		float64(sum.MissAsleep) != m["sim.miss.asleep"] || float64(sum.MissNoEnergy) != m["sim.miss.noenergy"] ||
		float64(sum.Wasted) != m["sim.wasted_activations"] {
		t.Errorf("replay %+v disagrees with manifest metrics %v", sum, m)
	}
	if sum.Runs != man.Trace.Runs || float64(sum.Runs) != m["sim.runs.kernel"]+m["sim.runs.reference"] {
		t.Errorf("replay runs %d, manifest %d (engines %v+%v)",
			sum.Runs, man.Trace.Runs, m["sim.runs.kernel"], m["sim.runs.reference"])
	}
}

func TestTraceRequiresOut(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "fig3a", "-quick", "-trace"}, &sb); err == nil {
		t.Fatal("-trace without -out accepted")
	}
}

// TestSpansFlagKeepsCSVByteIdentical: the phase-span profiler is
// RNG-neutral end to end — writing a Chrome trace must not change a
// single CSV byte — and the spans file must be valid trace-event JSON
// with the run's phases in it.
func TestSpansFlagKeepsCSVByteIdentical(t *testing.T) {
	csvFor := func(dir string, extra ...string) []byte {
		t.Helper()
		var sb strings.Builder
		args := append([]string{"-run", "fig3a", "-quick", "-slots", "20000", "-seed", "9", "-out", dir}, extra...)
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "fig3a.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	base := csvFor(t.TempDir())
	dir := t.TempDir()
	got := csvFor(dir, "-spans", "spans.json")
	if !bytes.Equal(got, base) {
		t.Errorf("-spans changed the CSV:\n%s\nvs\n%s", got, base)
	}

	data, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("spans file is not trace-event JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %s: ph = %q", ev.Name, ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"fig3a", "run", "solve", "sim.run", "compile", "write"} {
		if !names[want] {
			t.Errorf("spans file missing a %q span (have %v)", want, names)
		}
	}
}

// TestRunWritesJournalAndPhases: every -out run journals its manifest
// as one JSON line, the manifest embeds the phase breakdown and names
// the journal, and a failed run is journaled with its error and writes
// no manifest file.
func TestRunWritesJournalAndPhases(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-run", "fig3a", "-quick", "-slots", "20000", "-seed", "4", "-out", dir}, &sb); err != nil {
		t.Fatal(err)
	}

	man, err := obs.ReadManifest(filepath.Join(dir, "fig3a.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if man.Schema != obs.ManifestSchema {
		t.Fatalf("schema = %q, want v3 (%q)", man.Schema, obs.ManifestSchema)
	}
	if man.Journal != "runs.jsonl" {
		t.Fatalf("manifest journal = %q", man.Journal)
	}
	if man.Phases == nil || man.Phases.Name != "fig3a" || len(man.Phases.Phases) == 0 {
		t.Fatalf("manifest phases = %+v", man.Phases)
	}
	var simRun *obs.Phase
	for _, p := range man.Phases.Phases[0].Phases {
		if p.Name == "sim.run" {
			simRun = p
		}
	}
	if simRun == nil || simRun.Count == 0 {
		t.Fatalf("phase tree missing merged sim.run phases: %+v", man.Phases.Phases[0])
	}

	if lines := journalLines(t, dir); len(lines) != 1 || !reflect.DeepEqual(lines[0], man) {
		t.Fatalf("journal lines %+v, want the manifest %+v", lines, man)
	}

	// EBCW does not compile, so forcing the kernel fails fig5a.
	err = run([]string{"-run", "fig5a", "-quick", "-kernel", "on", "-out", dir}, &sb)
	if err == nil || !strings.Contains(err.Error(), "not compilable") {
		t.Fatalf("fig5a -kernel on: error %v, want the kernel's refusal", err)
	}
	lines := journalLines(t, dir)
	if len(lines) != 2 || lines[1].Experiment != "fig5a" || !strings.Contains(lines[1].Error, "not compilable") {
		t.Fatalf("failed run journaled as %+v, error %q", lines[len(lines)-1], err)
	}
	for _, name := range []string{"fig5a.manifest.json", "fig5a.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("failed run left %s (stat: %v)", name, err)
		}
	}
}

// journalLines decodes every line of dir's run journal.
func journalLines(t *testing.T, dir string) []*obs.Manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var out []*obs.Manifest
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var m obs.Manifest
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("journal line not JSON: %v\n%s", err, line)
		}
		out = append(out, &m)
	}
	return out
}

// TestManifestRecordsStats: every run's manifest (schema v4) carries the
// pooled QoM report, consistent with its own metrics block.
func TestManifestRecordsStats(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-run", "fig3a", "-quick", "-slots", "20000", "-seed", "6", "-out", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	man, err := obs.ReadManifest(filepath.Join(dir, "fig3a.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if man.Schema != "eventcap/run-manifest/v4" {
		t.Fatalf("schema = %q, want v4", man.Schema)
	}
	s := man.Stats
	if s == nil {
		t.Fatal("manifest has no stats block")
	}
	if s.Method != "pooled" || s.Count == 0 {
		t.Fatalf("stats block %+v", s)
	}
	// The pooled mean is exactly the metrics block's captures/events.
	if ev := man.Metrics["sim.events"]; ev == 0 || s.Mean != man.Metrics["sim.captures"]/ev {
		t.Errorf("pooled mean %v inconsistent with metrics %v/%v",
			s.Mean, man.Metrics["sim.captures"], man.Metrics["sim.events"])
	}
	if float64(s.Events) != man.Metrics["sim.events"] || float64(s.Captures) != man.Metrics["sim.captures"] {
		t.Errorf("stats totals %d/%d != metrics totals %v/%v",
			s.Captures, s.Events, man.Metrics["sim.captures"], man.Metrics["sim.events"])
	}
	if !strings.Contains(sb.String(), "stats: qom ") {
		t.Errorf("stdout missing the stats line:\n%s", sb.String())
	}
}

// TestTraceWithBatchRefused: the trace would hold replication 0 while
// the manifest's counters sum every replication.
func TestTraceWithBatchRefused(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-run", "fig3a", "-quick", "-trace", "-out", t.TempDir(), "-batch", "2"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "replication 0") {
		t.Fatalf("-trace with -batch 2: error %v, want the refusal", err)
	}
}
