package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"eventcap/internal/stats"
)

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig3a.manifest.json")
	want := &Manifest{
		Experiment:   "fig3a",
		Title:        "Fig 3(a)",
		CSV:          "fig3a.csv",
		CSVSHA256:    SHA256Hex([]byte("x,y\n1,2\n")),
		Config:       ManifestConfig{Slots: 100000, Seed: 3, Quick: true, Workers: 4, Engine: "auto", Batch: 2},
		ConfigDigest: DigestConfig("experiment=fig3a", "seed=3"),
		StartedAt:    "2026-08-05T12:00:00Z",
		WallMillis:   1234,
		GoVersion:    GoVersion(),
		Metrics:      map[string]float64{"sim.events": 10, "sim.captures": 7},
		Process:      map[string]float64{"pool.jobs.done": 5},
		Profiles:     map[string]string{"cpu": "cpu.prof"},
		Trace:        &TraceInfo{File: "fig3a.evtrace", SHA256: SHA256Hex(nil), Runs: 2, Records: 40},
		Phases: &Phase{
			Name: "fig3a", Count: 1, WallMicros: 1234000,
			Counters: map[string]int64{"slots": 100000},
			Phases:   []*Phase{{Name: "solve", Count: 1, WallMicros: 200000}},
		},
		Journal: "runs.jsonl",
	}
	// Write fills Schema and BinaryVersion-style fields as given.
	if err := want.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	want.Schema = ManifestSchema // filled in by Write
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestReadManifestRejectsOlderSchemas: v1–v3 predate every committed
// manifest and are no longer read.
func TestReadManifestRejectsOlderSchemas(t *testing.T) {
	dir := t.TempDir()
	for _, schema := range []string{
		"eventcap/run-manifest/v1",
		"eventcap/run-manifest/v2",
		"eventcap/run-manifest/v3",
	} {
		path := filepath.Join(dir, strings.ReplaceAll(schema, "/", "_")+".manifest.json")
		m := &Manifest{Schema: schema, Experiment: "fig3a", CSV: "fig3a.csv"}
		if err := m.Write(path); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(path); err == nil || !strings.Contains(err.Error(), "has schema") {
			t.Fatalf("%s manifest accepted: %v", schema, err)
		}
	}
}

func TestReadManifestRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.manifest.json")
	m := &Manifest{Schema: "eventcap/run-manifest/v999", Experiment: "x", CSV: "x.csv"}
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema accepted: %v", err)
	}
}

func TestSHA256Hex(t *testing.T) {
	// Known vector: SHA-256 of the empty string.
	if got := SHA256Hex(nil); got != "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" {
		t.Fatalf("SHA256Hex(nil) = %s", got)
	}
}

func TestBinaryVersionNonEmpty(t *testing.T) {
	if v := BinaryVersion(); v == "" {
		t.Fatal("BinaryVersion is empty")
	}
	if v := GoVersion(); !strings.HasPrefix(v, "go") {
		t.Fatalf("GoVersion = %q", v)
	}
}

// writtenManifest returns the bytes m.Write puts at path.
func writtenManifest(t testing.TB, m *Manifest, path string) []byte {
	t.Helper()
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readManifestBytes writes data to path and runs ReadManifest on it.
func readManifestBytes(t testing.TB, data []byte, path string) (*Manifest, error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return ReadManifest(path)
}

// FuzzReadManifest feeds arbitrary bytes to the run-manifest decoder. It
// must reject what it cannot read with an error, never a panic, and a
// manifest it accepts must survive a Write round trip: Write, then
// ReadManifest, then Write again reproduces the first Write's bytes.
// (Decoded values need not be equal: omitempty drops an empty
// "profiles": {} that the input spelled out.)
func FuzzReadManifest(f *testing.F) {
	// One directory for every input: a worker runs its inputs one at a
	// time, and a fresh directory per input cut the execution rate about
	// fourfold.
	dir := f.TempDir()
	in, first, second := filepath.Join(dir, "in.json"), filepath.Join(dir, "first.json"), filepath.Join(dir, "second.json")
	m := NewManifest("fig3a", "Fig 3(a)",
		ManifestConfig{Slots: 100000, Seed: 1, Quick: true, Workers: 2, Engine: "auto", Batch: 4},
		DigestConfig("experiment=fig3a", "seed=1"), time.Now(),
		Snapshot(), &Phase{Name: "fig3a", Count: 1, WallMicros: 90})
	m.CSV, m.CSVSHA256 = "fig3a.csv", SHA256Hex([]byte("x,y\n"))
	// A few counters, not every registered one, keep the seed short: the
	// fuzzer minimizes every new input it finds, at a cost that grows
	// with the input's length.
	m.Metrics = map[string]float64{"sim.events": 2755, "sim.captures": 1714, "sim.battery.frac_sum": 1234.5}
	m.Process = map[string]float64{"core.pi.evaluations": 42}
	m.Stats = &stats.Report{
		Method: stats.MethodPooled, Events: 2755, Captures: 1714, Mean: 0.6221415607985481,
		Count: 3, Level: 0.95, HalfWidth: 0.0049, RelHalfWidth: 0.0079, Of: stats.MethodReplication,
	}
	current := writtenManifest(f, m, first)
	// A record from before early stop and the stats block's battery
	// summary were retired: both blocks are skipped as unknown fields,
	// so the record still reads.
	of := []byte(`"of": "replication"`)
	if !bytes.Contains(current, of) {
		f.Fatalf("no %s in the seed record:\n%s", of, current)
	}
	legacy := bytes.Replace(current, of, append(of, `,
    "battery": {"count": 300, "mean": 0.5, "std_dev": 0.1, "p10": 0.4, "p50": 0.5, "p90": 0.6}`...), 1)
	legacy = append(bytes.TrimSuffix(legacy, []byte("\n}\n")), []byte(`,
  "early_stop": {"target_rel_hw": 0.5, "min_reps": 2, "max_reps": 16, "reps": 4, "rel_half_width": 0.31, "stopped": true}
}
`)...)
	if _, err := readManifestBytes(f, legacy, in); err != nil {
		f.Fatalf("legacy v4 record with early-stop and battery blocks rejected: %v", err)
	}
	v3 := bytes.Replace(current, []byte(ManifestSchema), []byte("eventcap/run-manifest/v3"), 1)
	if _, err := readManifestBytes(f, v3, in); err == nil {
		f.Fatal("v3 manifest accepted")
	}
	f.Add(current)
	f.Add(legacy)
	f.Add(v3)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readManifestBytes(t, data, in)
		if err != nil {
			return
		}
		w1 := writtenManifest(t, m, first)
		again, err := ReadManifest(first)
		if err != nil {
			t.Fatalf("Write output does not read back: %v\n%s", err, w1)
		}
		if w2 := writtenManifest(t, again, second); !bytes.Equal(w1, w2) {
			t.Fatalf("Write round trip moved bytes:\nfirst  %s\nsecond %s", w1, w2)
		}
	})
}
