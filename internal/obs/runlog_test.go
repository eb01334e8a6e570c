package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestRunLogRecordsJSONLines: each Record appends the manifest as one
// JSON line that decodes back to it, a failed run's error included, and
// a write the journal cannot make is reported by that Record call.
func TestRunLogRecordsJSONLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := OpenRunLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Path() != path {
		t.Fatalf("path = %q", l.Path())
	}
	want := []*Manifest{
		{
			Schema:       ManifestSchema,
			Experiment:   "fig3a",
			CSV:          "fig3a.csv",
			CSVSHA256:    "def",
			Config:       ManifestConfig{Slots: 100_000, Seed: 1, Workers: 4, Engine: "auto", Batch: 2},
			ConfigDigest: "sha256:abc",
			WallMillis:   1234,
			Metrics:      map[string]float64{"sim.events": 5000, "sim.captures": 2500, "sim.runs.kernel": 30},
			Process:      map[string]float64{},
			Phases:       &Phase{Name: "fig3a", Count: 1, WallMicros: 42},
			Journal:      "runs.jsonl",
		},
		{Schema: ManifestSchema, Experiment: "fig3b", Error: "boom"},
	}
	for _, m := range want {
		if err := l.Record(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(want[0]); err == nil {
		t.Fatal("Record on a closed journal reported no error")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []*Manifest
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m Manifest
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line not JSON: %v\n%s", err, sc.Text())
		}
		got = append(got, &m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal lines decode to\n%+v\nwant\n%+v", got, want)
	}
}

func TestRunLogAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for i := 0; i < 2; i++ {
		l, err := OpenRunLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Record(&Manifest{Experiment: "x"}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 2 {
		t.Fatalf("reopened journal has %d lines, want 2 (append, not truncate)", n)
	}
}
