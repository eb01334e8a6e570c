package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readTrajectory(t *testing.T, path string) *Trajectory {
	t.Helper()
	traj, err := loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

func TestAppendsNewRecordsKeyedByBenchmark(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, filepath.Join(dir, "BENCH_alpha.json"), map[string]any{"benchmark": "BenchmarkAlpha", "ns_per_op": 100})
	writeJSON(t, filepath.Join(dir, "BENCH_beta.json"), map[string]any{"benchmark": "BenchmarkBeta", "ns_per_op": 7})
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	traj := readTrajectory(t, filepath.Join(dir, "BENCH_trajectory.json"))
	if traj.Schema != TrajectorySchema || len(traj.Series) != 2 {
		t.Fatalf("trajectory: schema=%q series=%v", traj.Schema, traj.Series)
	}
	pts := traj.Series["BenchmarkAlpha"]
	if len(pts) != 1 || pts[0].Source != "BENCH_alpha.json" {
		t.Fatalf("BenchmarkAlpha series: %+v", pts)
	}
	var rec map[string]any
	if err := json.Unmarshal(pts[0].Record, &rec); err != nil {
		t.Fatal(err)
	}
	if rec["ns_per_op"] != float64(100) {
		t.Errorf("stored record: %v", rec)
	}
}

func TestUnchangedRecordIsNotReappended(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, filepath.Join(dir, "BENCH_alpha.json"), map[string]any{"benchmark": "BenchmarkAlpha", "ns_per_op": 100})
	var sb strings.Builder
	for i := 0; i < 3; i++ {
		if err := run([]string{"-dir", dir}, &sb); err != nil {
			t.Fatal(err)
		}
	}
	traj := readTrajectory(t, filepath.Join(dir, "BENCH_trajectory.json"))
	if pts := traj.Series["BenchmarkAlpha"]; len(pts) != 1 {
		t.Fatalf("re-running without new measurements grew the series to %d points", len(pts))
	}
	if !strings.Contains(sb.String(), "unchanged") {
		t.Errorf("missing unchanged notice:\n%s", sb.String())
	}
}

func TestChangedRecordAppendsPoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_alpha.json")
	writeJSON(t, path, map[string]any{"benchmark": "BenchmarkAlpha", "ns_per_op": 100})
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	writeJSON(t, path, map[string]any{"benchmark": "BenchmarkAlpha", "ns_per_op": 90})
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	traj := readTrajectory(t, filepath.Join(dir, "BENCH_trajectory.json"))
	pts := traj.Series["BenchmarkAlpha"]
	if len(pts) != 2 {
		t.Fatalf("series has %d points, want 2", len(pts))
	}
}

func TestOutputFileIsNotIngested(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, filepath.Join(dir, "BENCH_alpha.json"), map[string]any{"benchmark": "BenchmarkAlpha"})
	var sb strings.Builder
	// Run twice: the second run sees BENCH_trajectory.json on disk and
	// must skip it.
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	traj := readTrajectory(t, filepath.Join(dir, "BENCH_trajectory.json"))
	if len(traj.Series) != 1 {
		t.Fatalf("trajectory ingested itself: %v", traj.Series)
	}
}

func TestFallsBackToFileNameKey(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, filepath.Join(dir, "BENCH_raw.json"), map[string]any{"ns_per_op": 5})
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	traj := readTrajectory(t, filepath.Join(dir, "BENCH_trajectory.json"))
	if _, ok := traj.Series["BENCH_raw.json"]; !ok {
		t.Fatalf("missing file-name-keyed series: %v", traj.Series)
	}
}

func TestRejectsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_bad.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err == nil {
		t.Fatal("corrupt record accepted")
	}
}

// medianRecord builds a median-of-rounds BENCH record like the batch
// and multi-sensor suites emit.
func medianRecord(name string, speedup, floorPct float64) map[string]any {
	return map[string]any{
		"benchmark": name,
		"measurement": map[string]any{
			"median_speedup":  speedup,
			"noise_floor_pct": floorPct,
		},
	}
}

func TestCheckPassesWithinNoiseFloor(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_batch.json")
	// History at 5.0x, current run at 4.7x: a 6% dip, inside the 4%
	// floor + 10% default margin.
	writeJSON(t, path, medianRecord("BenchmarkBatch", 5.0, 4))
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	writeJSON(t, path, medianRecord("BenchmarkBatch", 4.7, 4))
	if err := run([]string{"check", "-dir", dir}, &sb); err != nil {
		t.Fatalf("within-noise dip flagged as regression: %v", err)
	}
	if !strings.Contains(sb.String(), "ok: 4.70x") {
		t.Errorf("missing ok line:\n%s", sb.String())
	}
}

func TestCheckFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_batch.json")
	writeJSON(t, path, medianRecord("BenchmarkBatch", 5.0, 4))
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	// 5.0x → 3.0x is a 40% drop, far past floor 4% + margin 10%.
	writeJSON(t, path, medianRecord("BenchmarkBatch", 3.0, 4))
	err := run([]string{"check", "-dir", dir}, &sb)
	if err == nil {
		t.Fatal("40%% speedup drop passed the gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkBatch") {
		t.Errorf("regression error does not name the benchmark: %v", err)
	}
	if !strings.Contains(sb.String(), "REGRESSION") {
		t.Errorf("missing REGRESSION line:\n%s", sb.String())
	}
}

func TestCheckMarginFlagTightensGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_batch.json")
	writeJSON(t, path, medianRecord("BenchmarkBatch", 5.0, 0))
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	writeJSON(t, path, medianRecord("BenchmarkBatch", 4.7, 0))
	// A 6% dip with zero floor: passes at the default 10% margin, fails
	// when the margin is tightened to 2 points.
	if err := run([]string{"check", "-dir", dir}, &sb); err != nil {
		t.Fatalf("default margin: %v", err)
	}
	if err := run([]string{"check", "-dir", dir, "-margin", "2"}, &sb); err == nil {
		t.Fatal("-margin 2 did not tighten the gate")
	}
}

func TestCheckUsesMedianOfPriors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_batch.json")
	var sb strings.Builder
	// Build history 5.0, 5.2, 4.9 (median 5.0), then drop to 4.0: a
	// 20% fall from the median must fail even though a single outlier
	// prior (4.9) sits closer.
	for _, s := range []float64{5.0, 5.2, 4.9} {
		writeJSON(t, path, medianRecord("BenchmarkBatch", s, 4))
		if err := run([]string{"-dir", dir}, &sb); err != nil {
			t.Fatal(err)
		}
	}
	writeJSON(t, path, medianRecord("BenchmarkBatch", 4.0, 4))
	if err := run([]string{"check", "-dir", dir}, &sb); err == nil {
		t.Fatal("20%% drop from prior median passed")
	}
}

// TestCheckComparesSameGoMaxProcs: a speedup that scales with the CPU
// count is judged only against priors measured at the record's own
// gomaxprocs, in both directions.
func TestCheckComparesSameGoMaxProcs(t *testing.T) {
	at := func(procs int, speedup float64) map[string]any {
		rec := medianRecord("BenchmarkParallelSpeedup", speedup, 4)
		rec["gomaxprocs"] = procs
		return rec
	}
	check := func(history []map[string]any, rec map[string]any) (string, error) {
		t.Helper()
		dir := t.TempDir()
		path := filepath.Join(dir, "BENCH_parallel.json")
		var sb strings.Builder
		for _, h := range history {
			writeJSON(t, path, h)
			if err := run([]string{"-dir", dir}, &sb); err != nil {
				t.Fatal(err)
			}
		}
		writeJSON(t, path, rec)
		err := run([]string{"check", "-dir", dir}, &sb)
		return sb.String(), err
	}
	// A 1-CPU record after 2-CPU history has no prior to fall short of.
	out, err := check([]map[string]any{at(2, 1.7), at(2, 1.75)}, at(1, 0.95))
	if err != nil {
		t.Fatalf("1-CPU record failed against 2-CPU priors: %v", err)
	}
	if !strings.Contains(out, "no prior points") {
		t.Errorf("missing no-prior note:\n%s", out)
	}
	// A slowed pool on 2 CPUs fails against its 2-CPU prior, though the
	// 1-CPU priors' median would let it pass.
	if _, err := check([]map[string]any{at(1, 0.95), at(1, 0.96), at(1, 0.94), at(2, 1.8)}, at(2, 1.0)); err == nil {
		t.Fatal("2-CPU regression passed against 1-CPU priors")
	}
}

func TestCheckSkipsRecordsWithoutSpeedup(t *testing.T) {
	dir := t.TempDir()
	// Overhead-style record (BENCH_obs shape): no speedup anywhere.
	writeJSON(t, filepath.Join(dir, "BENCH_obs.json"), map[string]any{
		"benchmark":   "BenchmarkMetricsOverhead",
		"measurement": map[string]any{"overhead_pct": 0.3, "budget_pct": 1.0},
	})
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-dir", dir}, &sb); err != nil {
		t.Fatalf("overhead-only record tripped the gate: %v", err)
	}
	if !strings.Contains(sb.String(), "skipped (no speedup figure of merit)") {
		t.Errorf("missing skip note:\n%s", sb.String())
	}
}

func TestCheckNoHistoryPasses(t *testing.T) {
	dir := t.TempDir()
	// A record that was never folded: no trajectory file at all.
	writeJSON(t, filepath.Join(dir, "BENCH_kernel.json"), map[string]any{
		"benchmark": "BenchmarkKernel", "speedup": 6.4,
	})
	var sb strings.Builder
	if err := run([]string{"check", "-dir", dir}, &sb); err != nil {
		t.Fatalf("record without history failed the gate: %v", err)
	}
	if !strings.Contains(sb.String(), "no prior points") {
		t.Errorf("missing no-history note:\n%s", sb.String())
	}
	// Fold it, then check again: the only trajectory point is the
	// record itself, which must not vouch for (or against) itself.
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-dir", dir}, &sb); err != nil {
		t.Fatalf("self-only trajectory failed the gate: %v", err)
	}
}

func TestCheckTopLevelSpeedupRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_kernel.json")
	// Single-shot records carry a bare top-level speedup and no noise
	// floor; the gate falls back to margin-only slack.
	writeJSON(t, path, map[string]any{"benchmark": "BenchmarkKernel", "speedup": 6.0})
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	writeJSON(t, path, map[string]any{"benchmark": "BenchmarkKernel", "speedup": 5.6})
	if err := run([]string{"check", "-dir", dir}, &sb); err != nil {
		t.Fatalf("6.7%% dip within 10%% margin failed: %v", err)
	}
	writeJSON(t, path, map[string]any{"benchmark": "BenchmarkKernel", "speedup": 5.0})
	if err := run([]string{"check", "-dir", dir}, &sb); err == nil {
		t.Fatal("16%% drop passed a margin-only gate")
	}
}

func TestCheckRepoRecords(t *testing.T) {
	// The committed records plus the committed trajectory must pass the
	// gate — `make check` runs exactly this.
	entries, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(entries) == 0 {
		t.Skipf("no repo BENCH records: %v", err)
	}
	dir := t.TempDir()
	for _, src := range entries {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-dir", dir}, &sb); err != nil {
		t.Fatalf("repo records fail their own gate: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "checked ") {
		t.Errorf("missing summary line:\n%s", sb.String())
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("single median = %v", got)
	}
}

func TestRepoRecordsIngest(t *testing.T) {
	// Every committed BENCH_*.json record at the repo root must ingest
	// cleanly into a series of its own (this is what `make check` runs).
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	records := 0
	for _, f := range files {
		if filepath.Base(f) == "BENCH_trajectory.json" {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		records++
	}
	if records == 0 {
		t.Fatal("no committed BENCH_*.json record found at the repo root")
	}
	var sb strings.Builder
	if err := run([]string{"-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	traj := readTrajectory(t, filepath.Join(dir, "BENCH_trajectory.json"))
	if len(traj.Series) != records {
		t.Fatalf("expected %d series from %d repo records, got %v", records, records, traj.Series)
	}
}

// FuzzBenchRecord feeds arbitrary bytes through the BENCH record
// decoders: loadRecord (from a file, as benchtraj reads them),
// figureOfMerit, gomaxprocs and bytesEqualCanonical. None may panic, and
// a record that loads must be canonical (loading its own bytes again
// reproduces them) and equal to itself.
func FuzzBenchRecord(f *testing.F) {
	// Every committed record is a seed.
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		if filepath.Base(name) == "BENCH_trajectory.json" {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"benchmark":"BenchmarkX","speedup":4.5,"gomaxprocs":2}`))
	f.Add([]byte(`{"measurement":{"median_speedup":"fast","noise_floor_pct":null}}`))
	f.Add([]byte(`[1,"two",{"benchmark":3}]`))
	f.Add([]byte(`{"benchmark":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		figureOfMerit(data)
		gomaxprocs(data)
		bytesEqualCanonical(data, data)
		path := filepath.Join(t.TempDir(), "BENCH_fuzz.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		key, rec, err := loadRecord(path)
		if err != nil {
			return
		}
		if err := os.WriteFile(path, rec, 0o644); err != nil {
			t.Fatal(err)
		}
		key2, rec2, err := loadRecord(path)
		if err != nil {
			t.Fatalf("canonical record does not load again: %v\n%s", err, rec)
		}
		if key2 != key || string(rec2) != string(rec) {
			t.Fatalf("record is not canonical: %q %s -> %q %s", key, rec, key2, rec2)
		}
		if !bytesEqualCanonical(rec, rec) || !bytesEqualCanonical(data, rec) {
			t.Fatalf("record differs from itself after canonicalization: %s", rec)
		}
		figureOfMerit(rec)
		gomaxprocs(rec)
	})
}
