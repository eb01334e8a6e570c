// Command simulate runs one event-capture simulation from flags: choose
// workload, recharge, policy, information model, number of sensors, and
// coordination mode; it prints the measured QoM and per-sensor stats.
//
// Usage:
//
//	simulate -dist weibull:40,3 -recharge bernoulli:0.5,1 -policy greedy -T 1000000
//	simulate -dist pareto:2,10 -recharge bernoulli:0.5,2 -policy clustering -info partial
//	simulate -dist weibull:40,3 -recharge bernoulli:0.1,1 -policy clustering -info partial -n 5 -mode roundrobin
//	simulate -dist markov:0.3,0.2 -recharge constant:1 -policy ebcw -info partial
//	simulate -dist weibull:40,3 -policy clustering -trace run.evtrace
//
// -trace writes a slot-level trace (internal/trace format) plus a
// <file>.manifest.json sidecar that cmd/tracetool's replay subcommand
// verifies; it is refused with -batch > 1, whose trace would hold
// replication 0 alone. -spans exports the run's phase spans as Chrome
// trace-event JSON for chrome://tracing or Perfetto.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"eventcap/internal/cliutil"
	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/obs"
	"eventcap/internal/sim"
	"eventcap/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		distSpec  = fs.String("dist", "weibull:40,3", "inter-arrival distribution (name:params)")
		rechSpec  = fs.String("recharge", "bernoulli:0.5,1", "recharge process (name:params)")
		policy    = fs.String("policy", "greedy", "policy: greedy | clustering | refined | aggressive | periodic | ebcw")
		infoStr   = fs.String("info", "full", "information model: full | partial")
		n         = fs.Int("n", 1, "number of sensors")
		mode      = fs.String("mode", "roundrobin", "coordination for n>1: roundrobin | blocks | all")
		capK      = fs.Float64("k", 1000, "battery capacity K")
		slots     = fs.Int64("T", 1_000_000, "simulation length in slots")
		seed      = fs.Uint64("seed", 1, "random seed")
		delta1    = fs.Float64("delta1", 1, "sensing energy per active slot")
		delta2    = fs.Float64("delta2", 6, "extra energy per capture")
		theta1    = fs.Int("theta1", 3, "theta1 for the periodic policy")
		workers   = fs.Int("workers", 0, "worker pool size for -batch replication chunks (0 = one per CPU)")
		kernel    = fs.String("kernel", "auto", "simulation engine of every run and -batch replication: auto (compiled kernel when eligible) | on (force kernel) | off (reference engine)")
		batch     = fs.Int("batch", 0, "run B independent replications at seeds seed..seed+B-1 on the -kernel engine, in parallel chunks of -workers, and aggregate them")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file")
		traceFile = fs.String("trace", "", "write a slot-level trace to this file plus a .manifest.json sidecar (never changes results; refused with -batch > 1)")
		spansFlag = fs.String("spans", "", "write the run's phase spans as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto; never changes results)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, err := sim.ParseEngine(*kernel)
	if err != nil {
		return err
	}
	if *traceFile != "" && *batch > 1 {
		return fmt.Errorf("-trace with -batch > 1 is refused: the trace holds replication 0 alone, but the manifest's counters sum every replication, so tracetool replay could not verify it")
	}
	stopProfiles, err := cliutil.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	profilesStopped := false
	defer func() {
		if !profilesStopped {
			stopProfiles()
		}
	}()

	d, err := cliutil.ParseDist(*distSpec)
	if err != nil {
		return err
	}
	newRecharge, err := cliutil.ParseRecharge(*rechSpec)
	if err != nil {
		return err
	}
	p := core.Params{Delta1: *delta1, Delta2: *delta2}
	if err := p.Validate(); err != nil {
		return err
	}

	var info sim.Info
	switch *infoStr {
	case "full":
		info = sim.FullInfo
	case "partial":
		info = sim.PartialInfo
	default:
		return fmt.Errorf("unknown info model %q", *infoStr)
	}

	e := newRecharge().Mean()
	aggregate := float64(*n) * e

	cfg := sim.Config{
		Dist:        d,
		Params:      p,
		NewRecharge: newRecharge,
		N:           *n,
		BatteryCap:  *capK,
		Slots:       *slots,
		Seed:        *seed,
		Info:        info,
		Workers:     *workers,
		Engine:      engine,
		Batch:       *batch,
	}
	switch *mode {
	case "roundrobin":
		cfg.Mode = sim.ModeRoundRobin
	case "all":
		cfg.Mode = sim.ModeAll
	case "blocks":
		cfg.Mode = sim.ModeBlocks // BlockLen set below for periodic
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if *n == 1 {
		cfg.Mode = sim.ModeAll
	}

	var analytic float64
	switch *policy {
	case "greedy":
		if info == sim.PartialInfo {
			// VectorFI sleeps whenever the time since the last event is
			// unknown, so under partial information it never wakes.
			return fmt.Errorf("policy greedy needs full information; use -policy clustering with -info partial")
		}
		fi, err := core.GreedyFI(d, aggregate, p)
		if err != nil {
			return err
		}
		analytic = fi.CaptureProb
		cfg.NewPolicy = func(int) sim.Policy { return &sim.VectorFI{Vector: fi.Policy, Label: "greedy"} }
	case "clustering", "refined":
		pi, err := core.OptimizeClustering(d, aggregate, p, core.ClusteringOptions{})
		if err != nil {
			return err
		}
		vec, u := pi.Vector, pi.CaptureProb
		if *policy == "refined" {
			ref, err := core.RefineWindows(d, aggregate, p, pi, 2)
			if err != nil {
				return err
			}
			vec, u = ref.Vector, ref.CaptureProb
		}
		analytic = u
		cfg.NewPolicy = func(int) sim.Policy { return &sim.VectorPI{Vector: vec, Label: *policy} }
	case "aggressive":
		analytic = core.AggressiveU(d, e, p)
		cfg.NewPolicy = func(int) sim.Policy { return sim.Aggressive{} }
	case "periodic":
		theta2, err := core.PeriodicTheta2(*theta1, aggregate, d, p)
		if err != nil {
			return err
		}
		pe, err := sim.NewPeriodic(*theta1, theta2)
		if err != nil {
			return err
		}
		analytic = core.PeriodicU(*theta1, theta2)
		cfg.NewPolicy = func(int) sim.Policy { return pe }
		if cfg.Mode == sim.ModeBlocks {
			cfg.BlockLen = pe.Theta2
		}
	case "ebcw":
		mr, ok := d.(*dist.MarkovRenewal)
		if !ok {
			return fmt.Errorf("policy ebcw requires -dist markov:a,b")
		}
		eb, err := core.OptimizeEBCW(mr.A(), mr.B(), aggregate, p)
		if err != nil {
			return err
		}
		analytic = eb.CaptureU
		cfg.NewPolicy = func(int) sim.Policy { return sim.NewEBCW(eb) }
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	if cfg.Mode == sim.ModeBlocks && cfg.BlockLen == 0 {
		return fmt.Errorf("mode blocks is only meaningful with -policy periodic")
	}

	var tf *trace.File
	if *traceFile != "" {
		if tf, err = trace.Create(*traceFile); err != nil {
			return err
		}
		cfg.Tracer = tf.Writer()
	}

	// The phase span is always attached (spans are RNG-neutral and wrap
	// phases, not slots): the trace sidecar records its breakdown, and
	// -spans exports the tree.
	root := obs.BeginSpan("simulate")
	cfg.Span = root

	before, start := obs.Snapshot(), time.Now()
	res, err := sim.Run(cfg)
	root.End()
	// Close the trace before any other output file is written: the
	// stream's write errors surface only there.
	var traceInfo *obs.TraceInfo
	if tf != nil {
		// The run error is primary; a failed run's trace is best-effort.
		var closeErr error
		if traceInfo, closeErr = tf.Close(); err == nil {
			err = closeErr
		}
	}
	if err != nil {
		return err
	}
	// The manifest is written only as the trace's sidecar, which sits
	// next to the trace so the pair stays relocatable and cmd/tracetool
	// replay verifies it like an experiment's. -trace is refused with
	// -batch > 1, so the run is never batched here.
	if tf != nil {
		man := obs.NewManifest("simulate", "", obs.ManifestConfig{
			Slots: cfg.Slots, Seed: cfg.Seed, Workers: cfg.Workers, Engine: engine.String(),
		}, configDigest(fs), start, before, root.Breakdown())
		man.Trace, man.Stats = traceInfo, res.Stats
		if err := man.Write(*traceFile + ".manifest.json"); err != nil {
			return err
		}
	}

	if *spansFlag != "" {
		sf, err := os.Create(*spansFlag)
		if err != nil {
			return fmt.Errorf("creating spans file: %w", err)
		}
		if err := obs.WriteChromeTrace(sf, root); err != nil {
			sf.Close()
			return err
		}
		if err := sf.Close(); err != nil {
			return fmt.Errorf("closing spans file: %w", err)
		}
	}

	fmt.Fprintf(out, "workload   %s (mu=%.2f), recharge %s (e=%.4f/sensor), policy %s, info %s\n",
		d.Name(), d.Mean(), newRecharge().Name(), e, *policy, *infoStr)
	fmt.Fprintf(out, "sensors    N=%d, K=%g, T=%d slots\n", *n, *capK, *slots)
	if *batch > 1 {
		fmt.Fprintf(out, "batch      B=%d replications (seeds %d..%d), engine %s\n",
			*batch, *seed, *seed+uint64(*batch)-1, res.Engine)
	}
	fmt.Fprintf(out, "events     %d   captured %d\n", res.Events, res.Captures)
	fmt.Fprintf(out, "QoM        %.4f   (analytic, energy assumption: %.4f)\n", res.QoM, analytic)
	if s := res.Stats; s.Level != 0 {
		fmt.Fprintf(out, "stats      qom %.6f ± %.6f (%.0f%% CI, rel %.4g, %s, n=%d)\n",
			s.Mean, s.HalfWidth, 100*s.Level, s.RelHalfWidth, s.Method, s.Count)
	} else {
		fmt.Fprintf(out, "stats      qom %.6f (%s, no interval)\n", s.Mean, s.Method)
	}
	if *n > 1 {
		fmt.Fprintf(out, "balance    load imbalance (max-min)/mean activations = %.4f\n", res.LoadImbalance())
	}
	m := res.Metrics
	fmt.Fprintf(out, "engine     %s\n", res.Engine)
	fmt.Fprintf(out, "misses     asleep=%d noenergy=%d (captures %d + misses %d = events %d)\n",
		m.MissAsleep, m.MissNoEnergy, res.Captures, m.MissAsleep+m.MissNoEnergy, res.Events)
	fmt.Fprintf(out, "energy     wasted activations=%d, outage slots=%d/%d observed, mean battery %.1f%% of K\n",
		m.WastedActivations, m.EnergyOutageSlots, m.ObservedSlots, 100*m.MeanBatteryFrac())
	if m.KernelRuns > 0 {
		fmt.Fprintf(out, "kernel     %d sleep runs fast-forwarded %d slots (%.1f%% of T)\n",
			m.KernelRuns, m.KernelSlotsFastForwarded, 100*float64(m.KernelSlotsFastForwarded)/float64(res.Slots))
	}
	if tf != nil {
		c := tf.Counts()
		fmt.Fprintf(out, "trace      %s: %d records, %d spans, %d bytes (manifest %s)\n",
			*traceFile, c.Records, c.Spans, c.Bytes, *traceFile+".manifest.json")
	}
	// A batch run carries one stats row per replication; listing 10^5 of
	// them would drown the summary, so show only the first few.
	sensors := res.Sensors
	if *batch > 1 && len(sensors) > 4 {
		sensors = sensors[:4]
	}
	for i, s := range sensors {
		fmt.Fprintf(out, "sensor %-2d  activations=%d captures=%d denied=%d energyUsed=%.0f battery=%.1f\n",
			i+1, s.Activations, s.Captures, s.Denied, s.EnergyConsumed, s.FinalBattery)
	}
	if len(sensors) < len(res.Sensors) {
		fmt.Fprintf(out, "           ... %d more replications elided\n", len(res.Sensors)-len(sensors))
	}
	profilesStopped = true
	return stopProfiles()
}

// observationFlags choose outputs and observers only, never a result;
// the config digest leaves them out.
var observationFlags = map[string]bool{
	"workers": true, "cpuprofile": true, "memprofile": true,
	"trace": true, "spans": true,
}

// configDigest hashes every flag that shapes the run's results (every
// flag but the observation ones, defaults included) into the
// manifest's config digest.
func configDigest(fs *flag.FlagSet) string {
	parts := []string{"experiment=simulate"}
	fs.VisitAll(func(f *flag.Flag) {
		if !observationFlags[f.Name] {
			parts = append(parts, f.Name+"="+f.Value.String())
		}
	})
	return obs.DigestConfig(parts...)
}
