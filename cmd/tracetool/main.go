// Command tracetool inspects and verifies the slot-level traces written
// by the simulators (internal/trace binary format, .evtrace).
//
// Usage:
//
//	tracetool dump [-format csv|jsonl] trace.evtrace
//	tracetool stats [-manifest run.manifest.json] trace.evtrace
//	tracetool diff a.evtrace b.evtrace
//	tracetool replay run.manifest.json
//
// dump renders every frame as CSV (default) or JSON lines. stats
// aggregates the trace into a per-activation-region breakdown plus
// energy-outage episode statistics, and rebuilds every run's QoM
// indicator stream through the same streaming estimators
// (internal/stats) the simulators' probe uses, printing per-run and
// pooled confidence intervals; with -manifest it verifies the rebuilt
// estimate against the manifest's stats block and exits nonzero on
// disagreement. diff reports the first slot where
// two traces diverge (engine tags ignored, so reference and kernel
// traces of the same run compare up to the kernel's sleep spans).
// replay re-derives events, captures, the miss decomposition, and
// wasted activations purely from the trace and verifies them — and the
// trace file's SHA-256 — against the run manifest; it exits nonzero on
// any mismatch, making a manifest+trace pair a self-checking artifact.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"eventcap/internal/obs"
	"eventcap/internal/stats"
	"eventcap/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: tracetool <dump|stats|diff|replay> [args] (see package doc)")
	}
	switch args[0] {
	case "dump":
		return runDump(args[1:], out)
	case "stats":
		return runStats(args[1:], out)
	case "diff":
		return runDiff(args[1:], out)
	case "replay":
		return runReplay(args[1:], out)
	}
	return fmt.Errorf("unknown subcommand %q (want dump, stats, diff, or replay)", args[0])
}

func openTrace(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening trace: %w", err)
	}
	return f, nil
}

func runDump(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracetool dump", flag.ContinueOnError)
	format := fs.String("format", "csv", "output format: csv | jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tracetool dump [-format csv|jsonl] <trace>")
	}
	if *format != "csv" && *format != "jsonl" {
		return fmt.Errorf("unknown format %q (want csv or jsonl)", *format)
	}
	f, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	if *format == "csv" {
		fmt.Fprintln(out, "frame,run,slot,sensor,engine,flags,h,f,prob,battery,recharge,len,events,captures,delivered")
	}
	enc := json.NewEncoder(out)
	var run int64 = -1
	for {
		fr, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if fr.Kind == trace.FrameRunStart {
			run++
		}
		if *format == "jsonl" {
			if err := enc.Encode(dumpRow(fr, run)); err != nil {
				return err
			}
			continue
		}
		if err := dumpCSV(out, fr, run); err != nil {
			return err
		}
	}
}

// dumpRow shapes one frame for JSONL output, keeping only the fields
// meaningful for its kind.
func dumpRow(f trace.Frame, run int64) map[string]any {
	switch f.Kind {
	case trace.FrameRunStart:
		return map[string]any{
			"frame": "run-start", "run": run,
			"engine": trace.EngineName(f.Run.Engine), "sensors": f.Run.Sensors,
			"seed": f.Run.Seed, "slots": f.Run.Slots,
			"battery_cap": f.Run.BatteryCap, "cost": f.Run.Cost,
			"policy": f.Run.Policy, "dist": f.Run.Dist, "recharge": f.Run.Recharge,
		}
	case trace.FrameSlot:
		r := f.Rec
		return map[string]any{
			"frame": "slot", "run": run, "slot": r.Slot, "sensor": r.Sensor,
			"engine": trace.EngineName(r.Engine), "flags": trace.FlagString(r.Flags),
			"h": r.H, "f": r.F, "prob": r.Prob, "battery": r.Battery, "recharge": r.Recharge,
		}
	case trace.FrameSpan:
		s := f.Span
		return map[string]any{
			"frame": "span", "run": run, "slot": s.Start, "len": s.Len,
			"events": s.Events, "state": s.State, "delivered": s.Delivered, "battery": s.Battery,
		}
	default:
		return map[string]any{
			"frame": "run-end", "run": run,
			"events": f.End.Events, "captures": f.End.Captures,
		}
	}
}

func dumpCSV(out io.Writer, f trace.Frame, run int64) error {
	var err error
	switch f.Kind {
	case trace.FrameRunStart:
		_, err = fmt.Fprintf(out, "run-start,%d,0,,%s,,,,,,,,%d,,\n",
			run, trace.EngineName(f.Run.Engine), f.Run.Slots)
	case trace.FrameSlot:
		r := f.Rec
		_, err = fmt.Fprintf(out, "slot,%d,%d,%d,%s,%s,%d,%d,%g,%g,%g,,,,\n",
			run, r.Slot, r.Sensor, trace.EngineName(r.Engine), trace.FlagString(r.Flags),
			r.H, r.F, r.Prob, r.Battery, r.Recharge)
	case trace.FrameSpan:
		s := f.Span
		_, err = fmt.Fprintf(out, "span,%d,%d,,,,,,,%g,%g,%d,%d,,\n",
			run, s.Start, s.Battery, s.Delivered, s.Len, s.Events)
	default:
		_, err = fmt.Fprintf(out, "run-end,%d,,,,,,,,,,,%d,%d,\n",
			run, f.End.Events, f.End.Captures)
	}
	return err
}

func runStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracetool stats", flag.ContinueOnError)
	manifest := fs.String("manifest", "", "verify the rebuilt QoM estimate against this run manifest's stats block (exits nonzero on mismatch)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tracetool stats [-manifest run.manifest.json] <trace>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("reading trace: %w", err)
	}
	rep, err := trace.Stats(bytes.NewReader(data))
	if err != nil {
		return err
	}
	// Rebuild the per-run QoM streams through the same streaming
	// estimators the simulation's probe uses, so the reports compare
	// field by field with a manifest's stats block.
	runs, err := trace.QoMReports(bytes.NewReader(data))
	if err != nil {
		return err
	}
	report := struct {
		Trace *trace.StatsReport `json:"trace"`
		QoM   struct {
			Runs   []stats.Report `json:"runs"`
			Pooled stats.Report   `json:"pooled"`
		} `json:"qom"`
	}{Trace: rep}
	report.QoM.Runs = runs
	report.QoM.Pooled = trace.PoolQoM(runs)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if *manifest == "" {
		return nil
	}
	return checkStatsAgainstManifest(out, report.QoM.Pooled, *manifest)
}

// checkStatsAgainstManifest asserts the trace-rebuilt pooled QoM
// estimate against the manifest's stats block. The point estimate must
// always agree (both sides compute Σcaptures/Σevents over the same
// integers). The CI half-width is method-dependent: it is asserted
// only when the manifest interval also came from batch means — then
// the rebuilt streams are the probe's streams and the half-widths
// agree to roundoff — and reported informationally otherwise (e.g. a
// replication CI over a batch run spreads differently by design).
func checkStatsAgainstManifest(out io.Writer, pooled stats.Report, path string) error {
	man, err := obs.ReadManifest(path)
	if err != nil {
		return err
	}
	ms := man.Stats
	if ms == nil {
		return fmt.Errorf("manifest %s has no stats block", path)
	}
	var problems []string
	if pooled.Events != ms.Events || pooled.Captures != ms.Captures {
		problems = append(problems, fmt.Sprintf("totals: trace %d/%d events/captures, manifest %d/%d",
			pooled.Events, pooled.Captures, ms.Events, ms.Captures))
	}
	if math.Abs(pooled.Mean-ms.Mean) > 1e-9 {
		problems = append(problems, fmt.Sprintf("qom mean: trace %.12f, manifest %.12f", pooled.Mean, ms.Mean))
	}
	batchMeansCI := ms.Method == stats.MethodBatchMeans ||
		(ms.Method == stats.MethodPooled && ms.Of == stats.MethodBatchMeans)
	if batchMeansCI && ms.HalfWidth > 0 {
		if rel := math.Abs(pooled.HalfWidth-ms.HalfWidth) / ms.HalfWidth; rel > 1e-6 {
			problems = append(problems, fmt.Sprintf("ci half-width: trace %.9g, manifest %.9g (rel err %.3g)",
				pooled.HalfWidth, ms.HalfWidth, rel))
		}
	}
	fmt.Fprintf(out, "manifest %s: qom %.6f ± %.6g, method %s\n",
		filepath.Base(path), ms.Mean, ms.HalfWidth, ms.Method)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(out, "  MISMATCH %s\n", p)
		}
		return fmt.Errorf("trace stats disagree with manifest on %d quantities", len(problems))
	}
	fmt.Fprintln(out, "  trace stats match manifest")
	return nil
}

func runDiff(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: tracetool diff <trace-a> <trace-b>")
	}
	fa, err := openTrace(args[0])
	if err != nil {
		return err
	}
	defer fa.Close()
	fb, err := openTrace(args[1])
	if err != nil {
		return err
	}
	defer fb.Close()
	d, err := trace.Diff(fa, fb)
	if err != nil {
		return err
	}
	if d == nil {
		fmt.Fprintln(out, "traces identical")
		return nil
	}
	fmt.Fprintf(out, "first divergence: frame %d, run %d, slot %d\n", d.Frame, d.Run, d.Slot)
	fmt.Fprintf(out, "  a: %s\n", d.A)
	fmt.Fprintf(out, "  b: %s\n", d.B)
	return fmt.Errorf("traces diverge at slot %d", d.Slot)
}

// runReplay verifies a manifest+trace pair: hash, frame counts, and the
// full metrics reconstruction.
func runReplay(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: tracetool replay <manifest.json>")
	}
	man, err := obs.ReadManifest(args[0])
	if err != nil {
		return err
	}
	if man.Trace == nil {
		return fmt.Errorf("manifest %s has no trace block (run with -trace)", args[0])
	}
	tracePath := man.Trace.File
	if !filepath.IsAbs(tracePath) {
		tracePath = filepath.Join(filepath.Dir(args[0]), tracePath)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		return fmt.Errorf("reading trace: %w", err)
	}
	if got := obs.SHA256Hex(data); got != man.Trace.SHA256 {
		return fmt.Errorf("trace %s sha256 = %s, manifest records %s", tracePath, got, man.Trace.SHA256)
	}
	sum, err := trace.Replay(bytes.NewReader(data))
	if err != nil {
		return err
	}

	var problems []string
	checkCount := func(name string, got, want int64) {
		if got != want {
			problems = append(problems, fmt.Sprintf("%s: trace %d, manifest %d", name, got, want))
		}
	}
	checkCount("runs", sum.Runs, man.Trace.Runs)
	checkCount("records", sum.Records, man.Trace.Records)
	checkCount("spans", sum.Spans, man.Trace.Spans)

	// The metrics block stores counters as float64; every compared
	// counter is integral and far below 2^53, so exact comparison is
	// sound. Absent keys are zero (Snapshot diffs drop unchanged
	// counters).
	metric := func(key string) int64 { return int64(math.Round(man.Metrics[key])) }
	checkCount("events", sum.Events, metric("sim.events"))
	checkCount("captures", sum.Captures, metric("sim.captures"))
	checkCount("miss.asleep", sum.MissAsleep, metric("sim.miss.asleep"))
	checkCount("miss.noenergy", sum.MissNoEnergy, metric("sim.miss.noenergy"))
	checkCount("wasted_activations", sum.Wasted, metric("sim.wasted_activations"))
	checkCount("engine runs", sum.Runs, metric("sim.runs.kernel")+metric("sim.runs.reference"))

	fmt.Fprintf(out, "replayed %s: %d runs, %d records, %d spans (%d span slots)\n",
		filepath.Base(tracePath), sum.Runs, sum.Records, sum.Spans, sum.SpanSlots)
	fmt.Fprintf(out, "  events=%d captures=%d miss.asleep=%d miss.noenergy=%d wasted=%d qom=%.6f\n",
		sum.Events, sum.Captures, sum.MissAsleep, sum.MissNoEnergy, sum.Wasted, sum.QoM)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(out, "  MISMATCH %s\n", p)
		}
		return fmt.Errorf("replay disagrees with manifest on %d quantities", len(problems))
	}
	fmt.Fprintln(out, "  replay matches manifest")
	return nil
}
