package obs

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig3a.manifest.json")
	want := &Manifest{
		Experiment:   "fig3a",
		Title:        "Fig 3(a)",
		CSV:          "fig3a.csv",
		CSVSHA256:    SHA256Hex([]byte("x,y\n1,2\n")),
		Config:       ManifestConfig{Slots: 100000, Seed: 3, Quick: true, Workers: 4, Engine: "auto"},
		ConfigDigest: DigestConfig("experiment=fig3a", "seed=3"),
		StartedAt:    "2026-08-05T12:00:00Z",
		WallMillis:   1234,
		GoVersion:    GoVersion(),
		Metrics:      map[string]float64{"sim.events": 10, "sim.captures": 7},
		Process:      map[string]float64{"pool.jobs.done": 5},
		Profiles:     map[string]string{"cpu": "cpu.prof"},
		Trace:        &TraceInfo{File: "fig3a.evtrace", SHA256: SHA256Hex(nil), Mode: "full", Runs: 2, Records: 40},
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
