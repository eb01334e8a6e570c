// Command benchtraj folds the repo's point-in-time benchmark records
// (BENCH_*.json) into a trajectory file, so performance history
// accumulates in-repo instead of each regeneration overwriting the
// last.
//
// Usage:
//
//	benchtraj [-dir .] [-out BENCH_trajectory.json]
//	benchtraj check [-dir .] [-traj BENCH_trajectory.json] [-margin 10]
//
// Every BENCH_*.json in -dir (except the output file itself) is read,
// keyed by its "benchmark" field (file name when absent), and appended
// to that benchmark's series — but only when the record differs from
// the series' current tail, so re-running `make check` without
// regenerating benchmarks is a no-op. Records are stored canonicalized
// (compact, sorted keys), making the equality check and the file bytes
// deterministic.
//
// The check verb is the bench-regression gate: it compares each
// record's figure of merit (measurement.median_speedup, or the
// top-level speedup for single-shot records) against the median of its
// prior trajectory points measured at the record's own gomaxprocs (a
// speedup such as BenchmarkParallelSpeedup's scales with the CPU
// count) and fails — exit nonzero — when the current value falls below
// that median by more than the record's own measured noise floor plus
// -margin percentage points. Records with no speedup figure (the
// overhead records, gated by their in-test budgets) and records with no
// history at their gomaxprocs pass with a note.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// TrajectorySchema identifies the trajectory format.
const TrajectorySchema = "eventcap/bench-trajectory/v1"

// Point is one appended benchmark record and the file it came from.
type Point struct {
	Source string          `json:"source"`
	Record json.RawMessage `json:"record"`
}

// Trajectory is the accumulated history: one append-only series per
// benchmark name.
type Trajectory struct {
	Schema string             `json:"schema"`
	Series map[string][]Point `json:"series"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtraj:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "check" {
		return runCheck(args[1:], out)
	}
	fs := flag.NewFlagSet("benchtraj", flag.ContinueOnError)
	dir := fs.String("dir", ".", "directory holding BENCH_*.json records")
	outFile := fs.String("out", "BENCH_trajectory.json", "trajectory file to update (relative to -dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	outPath := *outFile
	if !filepath.IsAbs(outPath) {
		outPath = filepath.Join(*dir, outPath)
	}

	traj, err := loadTrajectory(outPath)
	if err != nil {
		return err
	}

	files, err := filepath.Glob(filepath.Join(*dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	sort.Strings(files)

	appended := 0
	for _, f := range files {
		if filepath.Base(f) == filepath.Base(outPath) {
			continue
		}
		key, rec, err := loadRecord(f)
		if err != nil {
			return err
		}
		series := traj.Series[key]
		if n := len(series); n > 0 && bytesEqualCanonical(series[n-1].Record, rec) {
			fmt.Fprintf(out, "%s: unchanged (%d point(s))\n", key, n)
			continue
		}
		traj.Series[key] = append(series, Point{Source: filepath.Base(f), Record: rec})
		appended++
		fmt.Fprintf(out, "%s: appended point %d (from %s)\n", key, len(traj.Series[key]), filepath.Base(f))
	}

	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing trajectory: %w", err)
	}
	fmt.Fprintf(out, "wrote %s: %d series, %d new point(s)\n", outPath, len(traj.Series), appended)
	return nil
}

// runCheck is the bench-regression gate (the "check" verb).
func runCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchtraj check", flag.ContinueOnError)
	dir := fs.String("dir", ".", "directory holding BENCH_*.json records")
	trajFile := fs.String("traj", "BENCH_trajectory.json", "trajectory file with prior points (relative to -dir)")
	margin := fs.Float64("margin", 10, "slack in percentage points added to each record's measured noise floor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	trajPath := *trajFile
	if !filepath.IsAbs(trajPath) {
		trajPath = filepath.Join(*dir, trajPath)
	}
	traj, err := loadTrajectory(trajPath)
	if err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(*dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	sort.Strings(files)

	var regressions []string
	checked := 0
	for _, f := range files {
		if filepath.Base(f) == filepath.Base(trajPath) {
			continue
		}
		key, rec, err := loadRecord(f)
		if err != nil {
			return err
		}
		cur, floor, ok := figureOfMerit(rec)
		if !ok {
			// Overhead-only records (BENCH_span, BENCH_trace, ...) carry no
			// speedup; their ≤budget_pct gates run inside the benchmarks.
			fmt.Fprintf(out, "%-28s skipped (no speedup figure of merit)\n", key+":")
			continue
		}
		checked++
		// Prior points are the trajectory entries measured at the same
		// gomaxprocs that differ from the record on disk — the fold step
		// typically just appended the current record, which must not
		// vouch for itself.
		procs := gomaxprocs(rec)
		var priors []float64
		for _, pt := range traj.Series[key] {
			if bytesEqualCanonical(pt.Record, rec) || gomaxprocs(pt.Record) != procs {
				continue
			}
			if v, _, ok := figureOfMerit(pt.Record); ok {
				priors = append(priors, v)
			}
		}
		if len(priors) == 0 {
			fmt.Fprintf(out, "%-28s %.2fx, no prior points at gomaxprocs %d — pass\n", key+":", cur, procs)
			continue
		}
		prior := median(priors)
		threshold := prior * (1 - (floor+*margin)/100)
		if cur < threshold {
			msg := fmt.Sprintf("%s: %.2fx < threshold %.2fx (median of %d prior point(s) %.2fx, noise floor %.1f%% + margin %.1f%%)",
				key, cur, threshold, len(priors), prior, floor, *margin)
			regressions = append(regressions, msg)
			fmt.Fprintf(out, "%-28s REGRESSION: %.2fx < %.2fx\n", key+":", cur, threshold)
			continue
		}
		fmt.Fprintf(out, "%-28s ok: %.2fx >= %.2fx (median of %d prior(s) %.2fx, floor %.1f%% + margin %.1f%%)\n",
			key+":", cur, threshold, len(priors), prior, floor, *margin)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(out, "checked %d benchmark(s) against %s\n", checked, trajPath)
	return nil
}

// figureOfMerit extracts a record's comparable speedup and its measured
// noise floor (in percent): measurement.median_speedup with
// measurement.noise_floor_pct for median-of-rounds records, the
// top-level speedup (floor 0) for single-shot records. ok is false for
// records with neither — overhead-only records are not checked here.
func figureOfMerit(rec json.RawMessage) (fom, floor float64, ok bool) {
	var obj map[string]any
	if json.Unmarshal(rec, &obj) != nil {
		return 0, 0, false
	}
	if m, isMap := obj["measurement"].(map[string]any); isMap {
		if v, hasFom := m["median_speedup"].(float64); hasFom {
			floor, _ := m["noise_floor_pct"].(float64)
			return v, floor, true
		}
	}
	if v, hasFom := obj["speedup"].(float64); hasFom {
		return v, 0, true
	}
	return 0, 0, false
}

// gomaxprocs returns the GOMAXPROCS a record was measured at (0 when
// the record does not say).
func gomaxprocs(rec json.RawMessage) int {
	var r struct {
		GoMaxProcs int `json:"gomaxprocs"`
	}
	_ = json.Unmarshal(rec, &r)
	return r.GoMaxProcs
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// loadTrajectory reads an existing trajectory file, or returns an empty
// one when the file does not exist yet.
func loadTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Trajectory{Schema: TrajectorySchema, Series: map[string][]Point{}}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading trajectory: %w", err)
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		return nil, fmt.Errorf("parsing trajectory %s: %w", path, err)
	}
	if traj.Schema != TrajectorySchema {
		return nil, fmt.Errorf("trajectory %s has schema %q, want %q", path, traj.Schema, TrajectorySchema)
	}
	if traj.Series == nil {
		traj.Series = map[string][]Point{}
	}
	return &traj, nil
}

// loadRecord reads one BENCH_*.json record, returning its series key
// (the "benchmark" field, file name as fallback) and the canonicalized
// record bytes.
func loadRecord(path string) (string, json.RawMessage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, fmt.Errorf("reading record: %w", err)
	}
	var decoded any
	if err := json.Unmarshal(data, &decoded); err != nil {
		return "", nil, fmt.Errorf("parsing record %s: %w", path, err)
	}
	key := filepath.Base(path)
	if obj, ok := decoded.(map[string]any); ok {
		if name, ok := obj["benchmark"].(string); ok && name != "" {
			key = name
		}
	}
	// encoding/json marshals map keys sorted, so this is canonical.
	canon, err := json.Marshal(decoded)
	if err != nil {
		return "", nil, err
	}
	return key, canon, nil
}

// bytesEqualCanonical compares two records after canonicalization (the
// stored tail is already canonical, but older hand-edited trajectories
// may not be).
func bytesEqualCanonical(a, b json.RawMessage) bool {
	var av, bv any
	if json.Unmarshal(a, &av) != nil || json.Unmarshal(b, &bv) != nil {
		return string(a) == string(b)
	}
	ac, errA := json.Marshal(av)
	bc, errB := json.Marshal(bv)
	if errA != nil || errB != nil {
		return string(a) == string(b)
	}
	return string(ac) == string(bc)
}
