// Command regenbench is the repository's benchmark: it regenerates one
// paper figure per workload through the experiments package, with the
// options cmd/experiments uses by default (engine auto, one worker per
// CPU, streaming statistics on), and a cold policy cache before every
// repetition, as every CLI invocation starts with one.
//
// Run it from the repository root through its launcher, which builds it
// first:
//
//	bash regenbench/run.sh --workload pi-solve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it repeats the regeneration for about --seconds seconds
// and reports the end-to-end metrics (regen_s, cpu_s, setup_s,
// peak_heap_mb, alloc_mb). With --trace 1 it makes the same
// repetitions, then one traced pass that times the calls into core,
// dist, sim and experiments from outside, and reports the per-layer
// metrics. Every regeneration's CSV is checked against the committed
// reference; the last stdout line is the JSON result, preceded by a
// "stamp:" line with the settings a comparison must share.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/experiments"
	"eventcap/internal/obs"
	"eventcap/internal/parallel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "regenbench:", err)
		os.Exit(1)
	}
}

// setupProbes is how many times setup_s launches the set-up alone.
const setupProbes = 25

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("regenbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: pi-solve | fi-batch | fleet")
		seed    = fs.Uint64("seed", defaultSeed, "experiment seed (references are at seed 1)")
		seconds = fs.Int("seconds", 20, "measure for about this many seconds (at least two repetitions)")
		traceOn = fs.Int("trace", 0, "0: end-to-end metrics; 1: add a traced pass and report per-layer metrics")
		probe   = fs.Bool("setup-probe", false, "set up the workload and exit (the process setup_s times)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceOn)
	}
	if *seed == 0 {
		return fmt.Errorf("--seed must be positive")
	}
	b, err := prepare(*name)
	if err != nil || *probe {
		return err
	}
	setupS, err := measureSetup(*name)
	if err != nil {
		return err
	}

	res := result{Metrics: map[string]metric{}}
	reps, failed, selfErr := b.repeat(*seed, time.Duration(*seconds)*time.Second)
	res.Attempted, res.Failed = len(reps)+failed, failed
	res.Correct = failed == 0 && selfErr == nil
	if selfErr != nil {
		fmt.Fprintln(os.Stderr, "regenbench:", selfErr)
	}
	regen := median(reps, func(r rep) float64 { return r.wall })
	if *traceOn == 0 {
		res.add("regen_s", regen, "s")
		res.add("cpu_s", median(reps, func(r rep) float64 { return r.cpu }), "s")
		res.add("setup_s", setupS, "s")
		res.add("peak_heap_mb", median(reps, func(r rep) float64 { return r.peakHeap }), "MB")
		res.add("alloc_mb", median(reps, func(r rep) float64 { return r.alloc }), "MB")
	} else if len(reps) > 0 {
		if err := b.traced(*seed, reps, regen, &res); err != nil {
			fmt.Fprintln(os.Stderr, "regenbench:", err)
			res.Correct = false
		}
	}
	stamp(out, b.w.name, *seed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// bench is a prepared workload: everything the first regeneration needs.
type bench struct {
	w   workload
	exp experiments.Experiment
	d   dist.Interarrival
	ref *csvTable
}

// prepare is the benchmark's set-up: look the workload up, build its
// inputs and load its reference output.
func prepare(name string) (*bench, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	exp, ok := experiments.ByID(w.exp)
	if !ok {
		return nil, fmt.Errorf("experiment %q is not registered", w.exp)
	}
	d, err := w.dist()
	if err != nil {
		return nil, err
	}
	ref, err := loadReference(w.name)
	if err != nil {
		return nil, err
	}
	return &bench{w: w, exp: exp, d: d, ref: ref}, nil
}

// measureSetup launches this binary with --setup-probe setupProbes times
// and returns the median wall time from process start to exit: runtime
// and package initialization plus prepare.
func measureSetup(name string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, setupProbes)
	for i := range times {
		cmd := exec.Command(exe, "--setup-probe", "--workload", name)
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		times[i] = time.Since(start).Seconds()
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

// options returns the experiment options of one regeneration: the
// workload's size plus the cmd/experiments defaults.
func (b *bench) options(seed uint64) experiments.Options {
	opts := b.w.opts
	opts.Seed = seed
	opts.Workers = 0 // one per CPU
	opts.Stats = &experiments.StatsCollector{}
	return opts
}

// rep is one measured regeneration.
type rep struct {
	wall, cpu       float64 // seconds
	peakHeap, alloc float64 // MB
	hits, misses    int64   // policy-cache requests
	counters        map[string]float64
	csv             string
}

// regenerate runs the figure once from a cold policy cache, untraced.
func (b *bench) regenerate(seed uint64) (rep, error) {
	core.ResetPolicyCache()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	before := obs.Snapshot()
	cpu0 := cpuSeconds()
	stopHeap := sampleHeap()
	start := time.Now()
	table, err := b.exp.Run(b.options(seed))
	var csv string
	if err == nil {
		csv = table.CSV()
	}
	wall := time.Since(start).Seconds()
	peak := stopHeap()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms)
	if err != nil {
		return rep{}, err
	}
	hits, misses := core.CacheStats()
	return rep{
		wall: wall, cpu: cpu,
		peakHeap: peak / 1e6, alloc: float64(ms.TotalAlloc-alloc0) / 1e6,
		hits: hits, misses: misses,
		counters: obs.Diff(before, obs.Snapshot()),
		csv:      csv,
	}, nil
}

// repeat regenerates until the next repetition would overrun budget,
// at least twice. A repetition fails when it errors, when its CSV fails
// the reference check, or when it differs from the first repetition at
// the same seed. The returned error is the cold-run self-test: the first
// two repetitions must do identical work.
func (b *bench) repeat(seed uint64, budget time.Duration) (reps []rep, failed int, selfTest error) {
	start := time.Now()
	last := time.Duration(0)
	for len(reps) < 2 || time.Since(start)+last <= budget {
		t := time.Now()
		r, err := b.regenerate(seed)
		last = time.Since(t)
		if err == nil && len(reps) > 0 && r.csv != reps[0].csv {
			err = fmt.Errorf("csv differs from the first repetition at seed %d", seed)
		}
		if err == nil {
			_, err = maxAbsDev(r.csv, b.ref)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "regenbench: %s repetition %d failed: %v\n", b.w.name, len(reps)+failed, err)
			if failed > 2 {
				break
			}
			continue
		}
		reps = append(reps, r)
		fmt.Fprintf(os.Stderr, "%s rep %d: regen %.3fs cpu %.3fs alloc %.3fMB peak heap %.3fMB\n",
			b.w.name, len(reps), r.wall, r.cpu, r.alloc, r.peakHeap)
	}
	if len(reps) >= 2 {
		selfTest = sameWork(reps[0], reps[1])
	}
	return reps, failed, selfTest
}

// allocSlackMB is how far alloc_mb may move between two cold
// repetitions: the first repetition also pays one-off process-level
// allocations (about 0.01 MB), nothing else varies.
const allocSlackMB = 0.05

// sameWork is the cold-run self-test: two cold repetitions at one seed
// must show the same cache traffic, simulations, simulated slots and
// allocation, or state leaked between them.
func sameWork(a, b rep) error {
	for _, c := range []struct {
		what string
		x, y float64
	}{
		{"core cache hits", float64(a.hits), float64(b.hits)},
		{"core cache misses", float64(a.misses), float64(b.misses)},
		{"sim runs", simRuns(a.counters), simRuns(b.counters)},
		{"sim observed slots", a.counters["sim.observed_slots"], b.counters["sim.observed_slots"]},
		{"sim events", a.counters["sim.events"], b.counters["sim.events"]},
	} {
		if c.x != c.y { // floateq:ok integral counts compare exactly
			return fmt.Errorf("cold-run self-test: %s differ between repetitions 1 and 2: %v vs %v", c.what, c.x, c.y)
		}
	}
	if math.Abs(a.alloc-b.alloc) > allocSlackMB {
		return fmt.Errorf("cold-run self-test: alloc differs between repetitions 1 and 2: %.3f vs %.3f MB", a.alloc, b.alloc)
	}
	return nil
}

func simRuns(c map[string]float64) float64 {
	return c["sim.runs.kernel"] + c["sim.runs.reference"] + c["sim.runs.batch"]
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sampleHeap samples the Go heap's object bytes (live plus not yet
// swept) every 5 ms until the returned stop is called; stop waits for
// the sampler to exit and returns the largest sample, in bytes.
func sampleHeap() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		hi := 0.0
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > hi {
				hi = v
			}
			select {
			case <-done:
				peak <- hi
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

func median(reps []rep, f func(rep) float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// stamp prints the settings a parent-vs-change comparison must share.
func stamp(out io.Writer, workload string, seed uint64) {
	line, _ := json.Marshal(map[string]any{
		"workload":   workload,
		"seed":       seed,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    parallel.Workers(0),
		"commit":     commit(),
	})
	fmt.Fprintf(out, "stamp: %s\n", line)
}
