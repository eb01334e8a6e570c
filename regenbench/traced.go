package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"eventcap/internal/core"
	"eventcap/internal/experiments"
	"eventcap/internal/obs"
	"eventcap/internal/parallel"
)

// traced is the per-layer pass, run after the untraced repetitions:
//
//  1. From a cold cache, call the public cached solvers once for every
//     policy input the experiment requests, timing each call.
//  2. Regenerate on the now warm cache with Options.Span set, and read
//     the existing sim.run/compile/exec.* spans and sim.*/pool.*
//     counters. Any policy-cache miss here means the experiment asked for an
//     input step 1 did not solve, and fails the benchmark.
//  3. Render and write the CSV.
//
// Probes of single calls (a belief step, a hazard, an EvaluatePI) and
// the default-seed reference check follow, outside the traced total.
// reps are the untraced repetitions; regen is their median wall time.
func (b *bench) traced(seed uint64, reps []rep, regen float64, res *result) error {
	p := core.DefaultParams()
	inputs := b.w.inputs(b.d)

	// Step 1: the solves.
	core.ResetPolicyCache()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	var greedyS, clusterS, clusterMaxS float64
	var solved []*core.PIResult
	for _, in := range inputs {
		start := time.Now()
		if in.copts == nil {
			if _, err := core.GreedyFICached(in.d, in.e, p); err != nil {
				return fmt.Errorf("%s: %w", in, err)
			}
			greedyS += time.Since(start).Seconds()
			continue
		}
		pi, err := core.OptimizeClusteringCached(in.d, in.e, p, *in.copts)
		if err != nil {
			return fmt.Errorf("%s: %w", in, err)
		}
		d := time.Since(start).Seconds()
		clusterS += d
		if d > clusterMaxS {
			clusterMaxS = d
		}
		// A capped search equal to its base search is a cache hit on the
		// same policy.
		if len(solved) == 0 || solved[len(solved)-1] != pi {
			solved = append(solved, pi)
		}
	}
	runtime.ReadMemStats(&ms)
	solveAllocMB := float64(ms.TotalAlloc-alloc0) / 1e6
	solveS := greedyS + clusterS

	// Step 2: the warm regeneration under a span.
	opts := b.options(seed)
	root := obs.BeginSpan("run")
	opts.Span = root
	before := obs.Snapshot()
	start := time.Now()
	table, err := b.exp.Run(opts)
	root.End()
	runS := time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("traced regeneration: %w", err)
	}
	diff := obs.Diff(before, obs.Snapshot())
	if n := diff["cache.policy.misses"]; n != 0 {
		labels := make([]string, len(inputs))
		for i, in := range inputs {
			labels[i] = in.String()
		}
		return fmt.Errorf("attribution guard: the traced regeneration missed the policy cache %v time(s); "+
			"the experiment requested an input outside the pre-solved set [%s]", n, strings.Join(labels, "; "))
	}
	simRuns, simRunS, covered, err := simRunCover(root)
	if err != nil {
		return err
	}
	phases := root.Breakdown()
	spanSum := func(name string) float64 {
		var us int64
		walkPhases(phases, func(ph *obs.Phase) {
			if ph.Name == name {
				us += ph.WallMicros
			}
		})
		return float64(us) / 1e6
	}
	// Engine time and simulated slots (slots × replications) come from
	// the outermost exec.* phases.
	var execUs, slots int64
	var walkExec func(ph *obs.Phase)
	walkExec = func(ph *obs.Phase) {
		if strings.HasPrefix(ph.Name, "exec.") {
			execUs += ph.WallMicros
			slots += ph.Counters["slots"]
			return
		}
		for _, c := range ph.Phases {
			walkExec(c)
		}
	}
	walkExec(phases)
	slotsPerS := 0.0
	if execUs > 0 {
		slotsPerS = float64(slots) * 1e6 / float64(execUs)
	}
	var fallbacks float64
	for k, v := range diff {
		if strings.HasPrefix(k, "sim.engine.fallback.") {
			fallbacks += v
		}
	}
	driverS := root.Wall().Seconds() - covered

	// Step 3: render and write the CSV.
	dir, err := os.MkdirTemp("", "regenbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	start = time.Now()
	csv := table.CSV()
	if err := os.WriteFile(filepath.Join(dir, b.w.exp+".csv"), []byte(csv), 0o644); err != nil {
		return fmt.Errorf("writing csv: %w", err)
	}
	writeS := time.Since(start).Seconds()
	if csv != reps[0].csv {
		return fmt.Errorf("the warm-cache regeneration's csv differs from the cold repetitions'")
	}
	tracedS := solveS + runS + writeS

	// The reference check at the default seed.
	dev, err := maxAbsDev(reps[0].csv, b.ref)
	if seed != defaultSeed && err == nil {
		var t *experiments.Table
		if t, err = b.exp.Run(b.options(defaultSeed)); err == nil {
			dev, err = maxAbsDev(t.CSV(), b.ref)
		}
	}
	if err != nil {
		return fmt.Errorf("default-seed reference check: %w", err)
	}

	// Single-call probes.
	var evalMs []float64
	for _, pi := range solved {
		pol := pi.Policy
		start := time.Now()
		if _, err := core.EvaluatePI(b.d, p, func(i int, _ float64) float64 { return pol.At(i) }); err != nil {
			return fmt.Errorf("EvaluatePI: %w", err)
		}
		evalMs = append(evalMs, time.Since(start).Seconds()*1e3)
	}
	evalMedian := 0.0
	if len(evalMs) > 0 {
		evalMedian = medianOf(evalMs)
	}

	first := reps[0]
	// Busy time sums the layers' time over all workers: the sequential
	// solves, every simulation, the experiment's own time and the write.
	busy := solveS + simRunS + driverS + writeS
	// Pool busy time is the pool.latency sum of the untraced repetitions.
	// It includes engine-internal jobs nested in a sweep job (batch
	// chunks), so utilization can exceed 1 where those run.
	workers := float64(parallel.Workers(0))
	util := median(reps, func(r rep) float64 {
		return r.counters["pool.latency.sum_ns"] / 1e9 / (r.wall * workers)
	})
	hitRatio := 0.0
	if n := first.hits + first.misses; n > 0 {
		hitRatio = float64(first.hits) / float64(n)
	}
	failRatio := 0.0
	if res.Attempted > 0 {
		failRatio = float64(res.Failed) / float64(res.Attempted)
	}
	for _, m := range []struct {
		name string
		v    float64
		unit string
	}{
		{"core.solve_s", solveS, "s"},
		{"core.clustering_s", clusterS, "s"},
		{"core.clustering_max_s", clusterMaxS, "s"},
		{"core.greedy_s", greedyS, "s"},
		{"core.solve_calls", float64(len(inputs)), "count"},
		{"core.evaluate_pi_ms", evalMedian, "ms"},
		{"core.belief_step_ns", b.beliefStepNs(), "ns"},
		{"core.cache_hits", float64(first.hits), "count"},
		{"core.cache_misses", float64(first.misses), "count"},
		{"core.cache_hit_ratio", hitRatio, "ratio"},
		{"core.alloc_mb", solveAllocMB, "MB"},
		{"dist.hazard_ns", b.hazardNs(), "ns"},
		{"sim.run_s", simRunS, "s"},
		{"sim.compile_s", spanSum("compile"), "s"},
		{"sim.exec.batch_s", spanSum("exec.batch"), "s"},
		{"sim.exec.kernel_s", spanSum("exec.kernel"), "s"},
		{"sim.exec.reference_s", spanSum("exec.reference"), "s"},
		{"sim.runs", float64(simRuns), "count"},
		{"sim.slots", float64(slots), "count"},
		{"sim.slots_per_s", slotsPerS, "1/s"},
		{"sim.fallback_runs", fallbacks, "count"},
		{"parallel.jobs", first.counters["pool.jobs.done"], "count"},
		{"parallel.utilization", util, "ratio"},
		{"experiments.driver_s", driverS, "s"},
		{"experiments.write_s", writeS, "s"},
		{"bench.busy_s", busy, "s"},
		{"bench.traced_over_untraced", tracedS / regen, "ratio"},
		{"check.fail_ratio", failRatio, "ratio"},
		{"check.csv_max_abs_dev", dev, "abs"},
	} {
		res.add(m.name, m.v, m.unit)
	}
	return nil
}

// simRunCover returns the number of sim.run spans under root, their
// summed duration and the part of root's interval they cover
// (concurrent runs overlap, so the cover can be shorter than the sum),
// both in seconds. Span start times are public only through the Chrome
// trace export.
func simRunCover(root *obs.Span) (n int, sum, cover float64, err error) {
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, root); err != nil {
		return 0, 0, 0, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return 0, 0, 0, fmt.Errorf("reading spans: %w", err)
	}
	type span struct{ start, end int64 }
	var runs []span
	for _, ev := range doc.TraceEvents {
		if ev.Name == "sim.run" {
			runs = append(runs, span{ev.Ts, ev.Ts + ev.Dur})
			sum += float64(ev.Dur) / 1e6
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].start < runs[j].start })
	var us, end int64
	for _, r := range runs {
		if r.start > end {
			end = r.start
		}
		if r.end > end {
			us += r.end - end
			end = r.end
		}
	}
	return len(runs), sum, float64(us) / 1e6, nil
}

func walkPhases(ph *obs.Phase, fn func(*obs.Phase)) {
	if ph == nil {
		return
	}
	fn(ph)
	for _, c := range ph.Phases {
		walkPhases(c, fn)
	}
}

// beliefAges is the age support of core's belief filter, the horizon
// over which the clustering search reads hazards.
const beliefAges = 512

// beliefStepNs times one AdvanceNoCapture + EventProb step of the
// workload's belief filter at full age support (the cooling-region step
// of the clustering search): the median over batches, in ns.
func (b *bench) beliefStepNs() float64 {
	f := core.NewBeliefFilter(b.d)
	for i := 0; i < 2*beliefAges; i++ {
		f.AdvanceNoCapture(0)
	}
	const steps = 2000
	batches := make([]float64, 15)
	for k := range batches {
		start := time.Now()
		for i := 0; i < steps; i++ {
			f.AdvanceNoCapture(0)
			f.EventProb()
		}
		batches[k] = float64(time.Since(start).Nanoseconds()) / steps
	}
	return medianOf(batches)
}

var hazardSink float64

// hazardNs times Hazard(i) over i = 1..beliefAges on the workload's
// distribution: the median cost per call over batches, in ns.
func (b *bench) hazardNs() float64 {
	const sweeps = 20
	batches := make([]float64, 15)
	for k := range batches {
		start := time.Now()
		for s := 0; s < sweeps; s++ {
			for i := 1; i <= beliefAges; i++ {
				hazardSink += b.d.Hazard(i)
			}
		}
		batches[k] = float64(time.Since(start).Nanoseconds()) / (sweeps * beliefAges)
	}
	return medianOf(batches)
}

// commit identifies the code measured: the VCS revision when the build
// was stamped with one, otherwise a digest of the module's Go sources
// (a checkout without git history).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if e.Type().IsRegular() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
