// Command experiments regenerates the paper's evaluation (every figure
// of Section VI) plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	experiments -list
//	experiments -run fig3a,fig4b
//	experiments -run all -out results -quick
//
// Each experiment prints a paper-style ASCII table; with -out set, a CSV
// per experiment is written into the directory together with a JSON run
// manifest (<id>.manifest.json) recording the configuration, code
// version, wall time, and the run-level metrics behind the figure, and
// the same manifest is appended as one line to the run journal
// (runs.jsonl). A failed experiment is journaled with its error and
// writes no manifest file. Every experiment's manifest and journal line
// also record the pooled QoM point estimate with its confidence
// interval, which stdout prints as its "stats:" line.
//
// -trace additionally writes a slot-level binary trace (<id>.evtrace,
// hash-recorded in the manifest; verify with `tracetool replay`; refused
// with -batch > 1, whose trace would hold replication 0 alone). It
// changes no output byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"eventcap/internal/cliutil"
	"eventcap/internal/experiments"
	"eventcap/internal/obs"
	"eventcap/internal/parallel"
	"eventcap/internal/sim"
	"eventcap/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list experiment ids and exit")
		runID     = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		outDir    = fs.String("out", "", "directory to write CSV files and run manifests into (optional)")
		quick     = fs.Bool("quick", false, "reduced sweeps and shorter runs")
		slots     = fs.Int64("slots", 0, "override simulation length T (default 1e6; 1e5 with -quick)")
		seed      = fs.Uint64("seed", 1, "random seed")
		workers   = fs.Int("workers", 0, "worker pool size for sweep points (0 = one per CPU; results are identical for any value)")
		kernel    = fs.String("kernel", "auto", "simulation engine of every run and -batch replication: auto (compiled kernel when eligible) | on (force kernel) | off (reference engine)")
		batch     = fs.Int("batch", 0, "run each simulation as B independent replications at seeds seed..seed+B-1 on the -kernel engine and aggregate them")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file (a bare filename lands in -out)")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file (a bare filename lands in -out)")
		spansFlag = fs.String("spans", "", "write the run's phase spans as Chrome trace-event JSON to this file (a bare filename lands in -out; open in chrome://tracing or Perfetto)")
		traceFlag = fs.Bool("trace", false, "write a slot-level trace (<id>.evtrace) and record it in the manifest; requires -out, refused with -batch > 1")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, err := sim.ParseEngine(*kernel)
	if err != nil {
		return err
	}
	if *traceFlag && *outDir == "" {
		return fmt.Errorf("-trace requires -out (traces are written next to the CSVs)")
	}
	if *traceFlag && *batch > 1 {
		return fmt.Errorf("-trace with -batch > 1 is refused: the trace holds replication 0 alone, but the manifest's counters sum every replication, so tracetool replay could not verify it")
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-22s %s\n", e.ID, e.Title)
		}
		return nil
	}

	var selected []experiments.Experiment
	if *runID == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runID, ",") {
			id = strings.TrimSpace(id)
			exp, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, exp)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("no experiments selected")
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("creating output directory: %w", err)
		}
	}

	// Bare profile filenames land beside the manifests that point at them.
	cpuPath := cliutil.ResolveProfilePath(*cpuProf, *outDir)
	memPath := cliutil.ResolveProfilePath(*memProf, *outDir)
	spansPath := cliutil.ResolveProfilePath(*spansFlag, *outDir)
	stopProfiles, err := cliutil.StartProfiles(cpuPath, memPath)
	if err != nil {
		return err
	}
	profilesStopped := false
	defer func() {
		if !profilesStopped {
			stopProfiles()
		}
	}()

	// The run journal appends each experiment's manifest as one JSON line
	// beside the CSVs.
	var journal *obs.RunLog
	if *outDir != "" {
		journal, err = obs.OpenRunLog(filepath.Join(*outDir, "runs.jsonl"))
		if err != nil {
			return err
		}
		defer journal.Close()
	}
	var spanRoots []*obs.Span

	// Every experiment shares the configuration block, the profiles, and
	// the digest parts after its id. Workers are excluded from the
	// digest: results are worker-invariant, so two runs differing only
	// in pool size share a digest (and must share a CSV hash).
	cfg := obs.ManifestConfig{
		Slots: *slots, Seed: *seed, Quick: *quick,
		Workers: parallel.Workers(*workers), Engine: engine.String(),
	}
	digestParts := []string{
		fmt.Sprintf("slots=%d", *slots),
		fmt.Sprintf("seed=%d", *seed),
		fmt.Sprintf("quick=%t", *quick),
		"engine=" + engine.String(),
	}
	if *batch > 1 {
		cfg.Batch = *batch
		digestParts = append(digestParts, fmt.Sprintf("batch=%d", *batch))
	}
	profiles := profileRefs(*outDir, cpuPath, memPath)

	opts := experiments.Options{
		Slots: *slots, Seed: *seed, Quick: *quick, Workers: *workers,
		Engine: engine, Batch: *batch,
	}
	for _, exp := range selected {
		before, start := obs.Snapshot(), time.Now()
		digest := obs.DigestConfig(append([]string{"experiment=" + exp.ID}, digestParts...)...)
		// Phase spans: the experiment's root span with a "run" child
		// around the driver (each simulation forks "sim.run" under it)
		// and a "write" child around the CSV write below.
		root := obs.BeginSpan(exp.ID)
		// One stats collector per experiment (the manifest scope): the
		// pooled estimate lands in the manifest.
		coll := &experiments.StatsCollector{}
		opts.Stats = coll
		// A fresh trace file per experiment, so each manifest hashes
		// exactly its own runs.
		var tf *trace.File
		if *traceFlag {
			if tf, err = trace.Create(filepath.Join(*outDir, exp.ID+".evtrace")); err != nil {
				return err
			}
			opts.Tracer = tf.Writer()
		}
		runSpan := root.Child("run")
		opts.Span = runSpan
		table, err := exp.Run(opts)
		runSpan.End()
		elapsed := time.Since(start)
		var traceInfo *obs.TraceInfo
		if tf != nil {
			// The run error is primary; a failed run's trace is best-effort.
			var closeErr error
			if traceInfo, closeErr = tf.Close(); err == nil {
				err = closeErr
			}
		}
		var csv []byte
		if err == nil {
			rounded := elapsed.Round(time.Millisecond)
			// The "timing:" prefix marks the one note allowed to vary between
			// runs; CSV output carries no notes, so it stays byte-identical
			// for a fixed seed at any worker count.
			table.Notes = append(table.Notes, fmt.Sprintf("timing: %v wall-clock with %d workers", rounded, parallel.Workers(*workers)))
			fmt.Fprintln(out, table.ASCII())
			fmt.Fprintf(out, "(%s finished in %v)\n\n", exp.ID, rounded)
			printStats(out, coll)
			if *outDir != "" {
				ws := root.Child("write")
				csv = []byte(table.CSV())
				err = os.WriteFile(filepath.Join(*outDir, exp.ID+".csv"), csv, 0o644)
				ws.End()
			}
		}
		root.End()
		// Failed runs are journaled too, with their error and no manifest
		// file: the journal accounts for every run, not just the
		// successful ones.
		man := obs.NewManifest(exp.ID, exp.Title, cfg, digest, start, before, root.Breakdown())
		man.Trace, man.Profiles = traceInfo, profiles
		if r, ok := coll.Report(); ok {
			man.Stats = &r
		}
		if journal != nil {
			man.Journal = filepath.Base(journal.Path())
		}
		if err == nil && *outDir != "" {
			man.CSV, man.CSVSHA256 = exp.ID+".csv", obs.SHA256Hex(csv)
			manPath := filepath.Join(*outDir, exp.ID+".manifest.json")
			if err = man.Write(manPath); err == nil {
				fmt.Fprintf(out, "wrote %s\n", filepath.Join(*outDir, man.CSV))
				fmt.Fprintf(out, "wrote %s\n\n", manPath)
			}
		}
		if err != nil {
			man.Error = err.Error()
		}
		if journal != nil {
			if jerr := journal.Record(man); err == nil && jerr != nil {
				err = fmt.Errorf("recording in run journal: %w", jerr)
			}
		}
		if err != nil {
			return fmt.Errorf("running %s: %w", exp.ID, err)
		}
		spanRoots = append(spanRoots, root)
	}
	if spansPath != "" {
		sf, err := os.Create(spansPath)
		if err != nil {
			return fmt.Errorf("creating spans file: %w", err)
		}
		if err := obs.WriteChromeTrace(sf, spanRoots...); err != nil {
			sf.Close()
			return err
		}
		if err := sf.Close(); err != nil {
			return fmt.Errorf("writing spans file: %w", err)
		}
		fmt.Fprintf(out, "wrote %s\n", spansPath)
	}
	profilesStopped = true
	return stopProfiles()
}

// printStats prints an experiment's pooled QoM estimate.
func printStats(out io.Writer, coll *experiments.StatsCollector) {
	if r, ok := coll.Report(); ok {
		if r.Level != 0 {
			fmt.Fprintf(out, "stats: qom %.6f ± %.6f (%.0f%% CI, rel %.4g, pooled over %d runs)\n",
				r.Mean, r.HalfWidth, 100*r.Level, r.RelHalfWidth, r.Count)
		} else {
			fmt.Fprintf(out, "stats: qom %.6f (pooled over %d runs, no interval)\n", r.Mean, r.Count)
		}
	}
}

// profileRefs names the run's pprof files for the manifests: by base
// name when a profile lies in the output directory beside them, else
// by the path as given. Nil when no profile was requested.
func profileRefs(outDir, cpuPath, memPath string) map[string]string {
	var refs map[string]string
	for _, p := range [...]struct{ kind, path string }{{"cpu", cpuPath}, {"mem", memPath}} {
		if p.path == "" {
			continue
		}
		if refs == nil {
			refs = make(map[string]string)
		}
		if filepath.Dir(p.path) == filepath.Clean(outDir) {
			refs[p.kind] = filepath.Base(p.path)
		} else {
			refs[p.kind] = p.path
		}
	}
	return refs
}
