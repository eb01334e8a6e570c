package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"eventcap/internal/obs"
)

// TestCommittedResultsReproduce regenerates the paper (-run all -seed 1,
// the full-size suite) into a temporary directory and checks it against
// a committed results directory: the same set of CSVs, each
// byte-identical to its committed copy and to the csv_sha256 that the
// committed manifest records, and each regenerated manifest's metrics
// block (the sim.* counters: events, the miss decomposition, battery
// occupancy, the engine of every run) equal to the committed one, so a
// change that moves a run onto another engine fails here even when the
// CSVs match. The stats block (the pooled QoM estimate and its
// interval) must match too: it does not depend on the order sweep
// points finish in. The process block holds timings and is not
// compared. The full suite takes tens of seconds, so the test runs only
// when EVENTCAP_RESULTS_DIR names the directory to check; `make
// results-verify` sets it to results/.
func TestCommittedResultsReproduce(t *testing.T) {
	dir := os.Getenv("EVENTCAP_RESULTS_DIR")
	if dir == "" {
		t.Skip("set EVENTCAP_RESULTS_DIR (make results-verify) to regenerate and check the committed results")
	}
	fresh := t.TempDir()
	if err := run([]string{"-run", "all", "-seed", "1", "-out", fresh}, io.Discard); err != nil {
		t.Fatal(err)
	}
	committed := csvNames(t, dir)
	regenerated := csvNames(t, fresh)
	for _, name := range regenerated {
		if !slices.Contains(committed, name) {
			t.Errorf("%s: regenerated but not committed", name)
		}
	}
	for _, name := range committed {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		id := strings.TrimSuffix(name, ".csv")
		man, err := obs.ReadManifest(filepath.Join(dir, id+".manifest.json"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if sum := obs.SHA256Hex(want); man.CSVSHA256 != sum {
			t.Errorf("%s: sha256 %s, its manifest records %s", name, sum, man.CSVSHA256)
		}
		if !slices.Contains(regenerated, name) {
			t.Errorf("%s: committed but not regenerated", name)
			continue
		}
		got, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the regenerated run:\n%s", name, lineDiff(want, got))
		}
		if regen, err := obs.ReadManifest(filepath.Join(fresh, id+".manifest.json")); err != nil {
			t.Error(err)
		} else if man != nil {
			if !reflect.DeepEqual(regen.Metrics, man.Metrics) {
				t.Errorf("%s: metrics block differs from its committed manifest's:\n  committed:   %v\n  regenerated: %v",
					id, man.Metrics, regen.Metrics)
			}
			if !reflect.DeepEqual(regen.Stats, man.Stats) {
				t.Errorf("%s: stats block differs from its committed manifest's:\n  committed:   %+v\n  regenerated: %+v",
					id, man.Stats, regen.Stats)
			}
		}
	}
}

// csvNames returns the sorted base names of the CSVs in dir.
func csvNames(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = filepath.Base(p)
	}
	return names
}

// lineDiff lists the lines that differ between two CSVs, committed
// first.
func lineDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b {
			sb.WriteString("  committed:   " + a + "\n  regenerated: " + b + "\n")
		}
	}
	return sb.String()
}
