package eventcap_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/obs"
	"eventcap/internal/parallel"
	"eventcap/internal/sim"
	"eventcap/internal/trace"
)

// This file is the one harness behind the engine speed and overhead
// gates. Each benchGate row times paired base/variant benchmarks in
// interleaved rounds, applies its bounds and writes BENCH_<row>.json:
//
//	BENCH_DIR=<dir> go test -run 'TestBenchGates/<row>$' -count=1 .
//
// `make bench-gates` runs the rows `make check` gates on into
// bench-artifact/; `make bench-json` runs every row over the committed
// records, which needs a quiet machine.

// weibullFI is the fig3a policy family every workload runs: greedy-FI on
// Weibull(40,3) at harvest rate e, recharged by mk, at seed 1.
func weibullFI(tb testing.TB, e float64, mk func() (energy.Recharge, error)) sim.Config {
	tb.Helper()
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		tb.Fatal(err)
	}
	p := core.DefaultParams()
	fi, err := core.GreedyFI(d, e, p)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := mk(); err != nil {
		tb.Fatal(err)
	}
	return sim.Config{
		Dist:        d,
		Params:      p,
		NewRecharge: func() energy.Recharge { r, _ := mk(); return r },
		NewPolicy:   func(int) sim.Policy { return &sim.VectorFI{Vector: fi.Policy} },
		Seed:        1,
	}
}

func bernoulli(q, c float64) func() (energy.Recharge, error) {
	return func() (energy.Recharge, error) { return energy.NewBernoulli(q, c) }
}

// sparseConfig is the sparse-activation workload most rows time: K = 1000
// at the energy-scarce rate e = 0.1, where the policy sleeps through ~90%
// of each inter-arrival interval, the regime the slot-skipping kernel
// targets. (An energy-balanced policy's duty cycle is ~e/δ1 whatever the
// workload's mean, so the sparsity comes from the recharge rate.)
func sparseConfig(tb testing.TB, engine sim.Engine, slots int64) sim.Config {
	cfg := weibullFI(tb, 0.1, bernoulli(0.1, 1))
	cfg.BatteryCap, cfg.Slots, cfg.Engine = 1000, slots, engine
	return cfg
}

// fleetConfig is the fig6 M-FI construction on the sparse workload: the
// e = 0.1 policy is M-FI for a fleet whose aggregate budget is 0.1, so
// the harvest is split across N = 8 round-robin batteries, fig6's largest
// fleet, and the shared policy still sleeps through most of each gap.
func fleetConfig(tb testing.TB, engine sim.Engine, slots int64) sim.Config {
	cfg := sparseConfig(tb, engine, slots)
	cfg.N, cfg.Mode = 8, sim.ModeRoundRobin
	cfg.NewRecharge = func() energy.Recharge { r, _ := energy.NewBernoulli(0.1, 0.125); return r }
	return cfg
}

// fig3Recharges are fig3a's three recharge processes at e = 0.5.
var fig3Recharges = []struct {
	name string
	mk   func() (energy.Recharge, error)
}{
	{"bernoulli", bernoulli(0.5, 1)},
	{"periodic", func() (energy.Recharge, error) { return energy.NewPeriodic(5, 10) }},
	{"constant", func() (energy.Recharge, error) { return energy.NewConstant(0.5) }},
}

// fig3CellConfig returns one fig3a cell the way the fi-batch
// regeneration runs it: e = 0.5 (most awake slots lie in always-on runs)
// with recharge process r of fig3Recharges and battery capacity k.
func fig3CellConfig(tb testing.TB, r int, k float64) sim.Config {
	cfg := weibullFI(tb, 0.5, fig3Recharges[r].mk)
	cfg.BatteryCap = k
	return cfg
}

// side is one timed half of a comparison. build runs outside the timer
// (the GreedyFI solve dwarfs a run) and returns the op each iteration
// runs at its own seed, so no engine can amortize across iterations.
type side struct {
	name  string
	build func(testing.TB) func(seed uint64) error
}

// bench is the one timed run loop.
func (s side) bench(b *testing.B) {
	op := s.build(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// runOp runs cfg at the seed it is given. With spans, every run gets a
// fresh root span, as cmd/experiments attaches one.
func runOp(cfg sim.Config, spans bool) func(uint64) error {
	return func(seed uint64) error {
		cfg.Seed = seed
		if spans {
			root := obs.BeginSpan("bench")
			defer root.End()
			cfg.Span = root
		}
		res, err := sim.Run(cfg)
		switch {
		case err != nil:
			return err
		case res.Events == 0:
			return errors.New("benchmark run saw no events")
		}
		return nil
	}
}

// sparse times 10^6 slots of the sparse workload on engine with probe
// switched on: "" or "<probe>=off" for none, "spans=on" or "full" (the
// full trace to io.Discard).
func sparse(engine sim.Engine, probe string) side {
	name := engine.String()
	if probe != "" {
		name += "/" + probe
	}
	return side{name, func(tb testing.TB) func(uint64) error {
		cfg := sparseConfig(tb, engine, 1_000_000)
		switch probe {
		case "", "spans=off", "trace=off", "spans=on":
		case "full":
			cfg.Tracer = trace.NewWriter(io.Discard)
		default:
			tb.Fatalf("unknown probe %q", probe)
		}
		return runOp(cfg, probe == "spans=on")
	}}
}

// replications times B = 10^4 kernel replications of T = 10^4 sparse
// slots in one op: short horizons are a batch's regime (replication
// studies, confidence-interval sweeps), where per-run setup dominates a
// loop of sim.Run calls. Batched, the op is one Batch = B call;
// otherwise it is that loop, B single runs at consecutive seeds: the
// baseline a batch replaces, running the same replications.
func replications(batched bool) side {
	const reps = 10_000
	name := "sequential"
	if batched {
		name = "batch"
	}
	return side{name, func(tb testing.TB) func(uint64) error {
		cfg := sparseConfig(tb, sim.EngineKernel, 10_000)
		if batched {
			cfg.Batch = reps
			return runOp(cfg, false)
		}
		one := runOp(cfg, false)
		return func(seed uint64) error {
			for r := range uint64(reps) {
				if err := one(seed + r); err != nil {
					return err
				}
			}
			return nil
		}
	}}
}

func fleet(engine sim.Engine) side {
	return side{engine.String(), func(tb testing.TB) func(uint64) error {
		return runOp(fleetConfig(tb, engine, 1_000_000), false)
	}}
}

// sweep times a 16-point sweep of independent runs through parallel.Map,
// the shape every experiment fans out, on the given worker count
// (0: all CPUs). Each op runs the same 16 seeds.
func sweep(workers int) side {
	name := fmt.Sprintf("workers=%d", workers)
	if workers == 0 {
		name = fmt.Sprintf("workers=%d", runtime.NumCPU())
	}
	return side{name, func(tb testing.TB) func(uint64) error {
		cfg := weibullFI(tb, 0.5, bernoulli(0.5, 1))
		cfg.BatteryCap, cfg.Slots = 1000, 200_000
		return func(uint64) error {
			_, err := parallel.Map(workers, 16, func(i int) (float64, error) {
				c := cfg
				c.Seed = uint64(i + 1)
				res, err := sim.Run(c)
				return res.QoM, err
			})
			return err
		}
	}}
}

// round is one interleaved base/variant pair.
type round struct {
	Base    int64 `json:"base_ns_per_op"`
	Variant int64 `json:"variant_ns_per_op"`
}

// measurement summarizes a comparison's rounds. Pairing the sides in each
// round cancels machine drift and the medians resist one disturbed round.
// NoiseFloorPct, the base side's spread over its rounds as a percentage
// of its median, says how much of a result could be wobble, so a bound
// allows the median to miss by it. (Taking each side's minimum apart once
// let the instrumented side win the noise lottery and read -4.6%.)
type measurement struct {
	Rounds               []round `json:"rounds"`
	MedianBaseNsPerOp    int64   `json:"median_base_ns_per_op"`
	MedianVariantNsPerOp int64   `json:"median_variant_ns_per_op"`
	MedianSpeedup        float64 `json:"median_speedup"`      // of base/variant
	MedianOverheadPct    float64 `json:"median_overhead_pct"` // of 100·(variant−base)/base
	NoiseFloorPct        float64 `json:"noise_floor_pct"`
	MinSpeedup           float64 `json:"min_speedup,omitempty"`
	BudgetPct            float64 `json:"budget_pct,omitempty"`
}

func median[T int64 | float64](vs []T) T {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summarize computes a measurement from its rounds (apart from
// measure, so the math is testable without running benchmarks).
func summarize(rounds []round) measurement {
	var bases, variants []int64
	var speedups, overheads []float64
	for _, r := range rounds {
		bases = append(bases, r.Base)
		variants = append(variants, r.Variant)
		speedups = append(speedups, float64(r.Base)/float64(r.Variant))
		overheads = append(overheads, 100*(float64(r.Variant)-float64(r.Base))/float64(r.Base))
	}
	m := measurement{
		Rounds:               rounds,
		MedianBaseNsPerOp:    median(bases),
		MedianVariantNsPerOp: median(variants),
		MedianSpeedup:        median(speedups),
		MedianOverheadPct:    median(overheads),
	}
	m.NoiseFloorPct = 100 * float64(slices.Max(bases)-slices.Min(bases)) / float64(m.MedianBaseNsPerOp)
	return m
}

// gate applies m's bounds: the median speedup may undershoot MinSpeedup,
// and the median overhead overshoot BudgetPct, only by the noise floor.
// A zero bound records without gating.
func (m measurement) gate() error {
	if m.MinSpeedup > 0 && m.MedianSpeedup < m.MinSpeedup*(1-m.NoiseFloorPct/100) {
		return fmt.Errorf("median speedup %.2fx (noise floor %.1f%%), want >= %gx",
			m.MedianSpeedup, m.NoiseFloorPct, m.MinSpeedup)
	}
	if m.BudgetPct > 0 && m.MedianOverheadPct > m.BudgetPct+m.NoiseFloorPct {
		return fmt.Errorf("median overhead %.2f%% exceeds the %g%% budget + %.2f%% noise floor (%d → %d ns/op)",
			m.MedianOverheadPct, m.BudgetPct, m.NoiseFloorPct, m.MedianBaseNsPerOp, m.MedianVariantNsPerOp)
	}
	return nil
}

// comparison is one paired measurement of a gate row, with its bounds.
// A row's unnamed comparison is its speedup figure, recorded as
// "measurement" (where benchtraj reads a record's figure of merit); named
// ones are recorded under "comparisons".
type comparison struct {
	name          string
	base, variant side
	minSpeedup    float64
	budgetPct     float64
}

// measure times c's sides in n interleaved rounds, base first.
func measure(t *testing.T, c comparison, n int) measurement {
	rs := make([]round, n)
	for i := range rs {
		rs[i] = round{testing.Benchmark(c.base.bench).NsPerOp(), testing.Benchmark(c.variant.bench).NsPerOp()}
		if rs[i].Base == 0 || rs[i].Variant == 0 {
			t.Fatalf("%s vs %s: a benchmark failed (0 ns/op)", c.variant.name, c.base.name)
		}
	}
	m := summarize(rs)
	m.MinSpeedup, m.BudgetPct = c.minSpeedup, c.budgetPct
	return m
}

// probeCost compares the sparse workload without and with a probe on
// both engines, each gated at the 2% budget of DESIGN.md §9.
func probeCost(probe string) []comparison {
	ref, ker := sim.EngineReference, sim.EngineKernel
	return []comparison{
		{name: "reference", base: sparse(ref, probe+"=off"), variant: sparse(ref, probe+"=on"), budgetPct: 2},
		{name: "kernel", base: sparse(ker, probe+"=off"), variant: sparse(ker, probe+"=on"), budgetPct: 2},
	}
}

// benchGate is one row of the gate table and one BENCH_<row>.json.
type benchGate struct {
	row         string
	benchmark   string // the record's series key in BENCH_trajectory.json
	config      string
	slotsPerOp  int64
	rounds      int
	comparisons []comparison
	// loopAllocs, when set, counts the variant engine's steady-state loop
	// allocations, which must be 0.
	loopAllocs func(testing.TB) float64
}

const sparseDesc = "greedy-FI (fig3a policy family), Weibull(40,3), Bernoulli(0.1,1) recharge, K=1000"

var benchGates = []benchGate{
	{
		row: "kernel", benchmark: "BenchmarkKernelSlotsPerOp", config: sparseDesc, slotsPerOp: 1_000_000, rounds: 3,
		comparisons: []comparison{{base: sparse(sim.EngineReference, ""), variant: sparse(sim.EngineKernel, "")}},
		loopAllocs: func(tb testing.TB) float64 {
			return loopAllocs(tb, sparseConfig(tb, sim.EngineKernel, 0), 1, 1_000_000)
		},
	},
	{
		row: "batch", benchmark: "BenchmarkBatchSlotsPerOp", rounds: 3,
		config:     sparseDesc + ", B=10000 replications x T=10000 slots",
		slotsPerOp: 10_000 * 10_000,
		comparisons: []comparison{{
			base: replications(false), variant: replications(true), minSpeedup: 5,
		}},
		loopAllocs: func(tb testing.TB) float64 {
			cfg := sparseConfig(tb, sim.EngineKernel, 0)
			cfg.Batch = 256
			return loopAllocs(tb, cfg, 100, 50_000)
		},
	},
	{
		row: "multi", benchmark: "BenchmarkMultiSensorSlotsPerOp", slotsPerOp: 1_000_000, rounds: 3,
		config:      "M-FI (fig6 policy family at aggregate rate 0.1), N=8 round-robin, Weibull(40,3), Bernoulli(0.1,0.125) recharge per sensor, K=1000",
		comparisons: []comparison{{base: fleet(sim.EngineReference), variant: fleet(sim.EngineKernel), minSpeedup: 3}},
		loopAllocs: func(tb testing.TB) float64 {
			return loopAllocs(tb, fleetConfig(tb, sim.EngineKernel, 0), 1, 1_000_000)
		},
	},
	// Spans wrap phases, never slots: their cost per run is constant.
	{row: "span", benchmark: "BenchmarkSpanOverhead", config: sparseDesc, slotsPerOp: 1_000_000, rounds: 5, comparisons: probeCost("spans")},
	// The full trace is priced per debugging run, not left on: the row
	// records what it costs the reference engine and gates nothing.
	{
		row: "trace", benchmark: "BenchmarkTraceOverhead", config: sparseDesc, slotsPerOp: 1_000_000, rounds: 5,
		comparisons: []comparison{
			{name: "reference_full", base: sparse(sim.EngineReference, "trace=off"), variant: sparse(sim.EngineReference, "full")},
		},
	},
	{
		row: "parallel", benchmark: "BenchmarkParallelSpeedup", slotsPerOp: 16 * 200_000, rounds: 3,
		config:      "16 independent greedy-FI runs (Weibull(40,3), Bernoulli(0.5,1) recharge, K=1000, T=200000) through parallel.Map, deterministic by construction",
		comparisons: []comparison{{base: sweep(1), variant: sweep(0)}},
	},
}

// benchRecord is the one BENCH_<row>.json schema.
type benchRecord struct {
	Benchmark   string                 `json:"benchmark"`
	Config      string                 `json:"config"`
	SlotsPerOp  int64                  `json:"slots_per_op"`
	Rounds      int                    `json:"rounds"`
	Measurement *measurement           `json:"measurement,omitempty"`
	Comparisons map[string]measurement `json:"comparisons,omitempty"`
	LoopAllocs  *float64               `json:"steady_state_loop_allocs,omitempty"`
	GoMaxProcs  int                    `json:"gomaxprocs"`
	GoVersion   string                 `json:"go_version"`
}

// TestBenchGates measures every row of the gate table, fails a row whose
// bound does not hold, and writes the row's record into $BENCH_DIR. It
// skips without BENCH_DIR, so plain test runs stay fast.
func TestBenchGates(t *testing.T) {
	dir := os.Getenv("BENCH_DIR")
	for _, g := range benchGates {
		t.Run(g.row, func(t *testing.T) {
			if dir == "" {
				t.Skip("set BENCH_DIR=<dir> to measure the gate and write BENCH_" + g.row + ".json there")
			}
			rec := benchRecord{
				Benchmark: g.benchmark, Config: g.config, SlotsPerOp: g.slotsPerOp, Rounds: g.rounds,
				Comparisons: map[string]measurement{},
				GoMaxProcs:  runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			}
			for _, c := range g.comparisons {
				m := measure(t, c, g.rounds)
				t.Logf("%s vs %s: median %.2fx, overhead %.2f%%, noise floor %.2f%%",
					c.variant.name, c.base.name, m.MedianSpeedup, m.MedianOverheadPct, m.NoiseFloorPct)
				if err := m.gate(); err != nil {
					t.Errorf("%s vs %s: %v", c.variant.name, c.base.name, err)
				}
				if c.name == "" {
					rec.Measurement = &m
				} else {
					rec.Comparisons[c.name] = m
				}
			}
			if g.loopAllocs != nil {
				a := g.loopAllocs(t)
				rec.LoopAllocs = &a
				if a > 0 {
					t.Errorf("steady-state loop allocs = %v, want 0", a)
				}
			}
			data, err := json.MarshalIndent(rec, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "BENCH_"+g.row+".json"), append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkGates times every side of the gate table, named <row>/<side>:
// `go test -bench 'Gates/kernel/'` runs the sparse workload on both
// engines.
func BenchmarkGates(b *testing.B) {
	for _, g := range benchGates {
		b.Run(g.row, func(b *testing.B) {
			seen := map[string]bool{}
			for _, c := range g.comparisons {
				for _, s := range []side{c.base, c.variant} {
					if !seen[s.name] {
						seen[s.name] = true
						b.Run(s.name, s.bench)
					}
				}
			}
		})
	}
}

// BenchmarkBatchFig3Cells times one fig3a cell (fig3CellConfig) per
// recharge process at Batch 4 x T = 10^6 (slots/op is 4e6) on one
// worker. The plain cells run K = 100, where about 1% of awake slots are
// energy-denied; the -K7 cells run K = 7, where 47–84% are (depending on
// the recharge process), so the energy gate's branch is unpredictable
// there.
func BenchmarkBatchFig3Cells(b *testing.B) {
	for _, k := range []float64{100, 7} {
		for r, rc := range fig3Recharges {
			name := rc.name
			if k != 100 {
				name = fmt.Sprintf("%s-K%g", rc.name, k)
			}
			b.Run(name, side{name, func(tb testing.TB) func(uint64) error {
				cfg := fig3CellConfig(tb, r, k)
				cfg.Slots, cfg.Batch, cfg.Workers = 1_000_000, 4, 1
				return runOp(cfg, false)
			}}.bench)
		}
	}
}

// steadyAllocs is testing.AllocsPerRun(3, f) with the garbage collector
// off. The steady-state checks compare two such counts (a long run minus
// a short one), and a GC cycle that starts inside the measured window
// charges the runtime's own bookkeeping to f, so a clean loop would
// intermittently read as allocating. Turning GC off hides no allocation
// f itself makes: AllocsPerRun counts mallocs, not collections.
func steadyAllocs(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(3, f)
}

// loopAllocs is how many more allocations cfg makes over long slots than
// over short ones: 0 when every allocation is per-run setup.
func loopAllocs(tb testing.TB, cfg sim.Config, short, long int64) float64 {
	tb.Helper()
	run := func(slots int64) float64 {
		return steadyAllocs(func() {
			c := cfg
			c.Slots = slots
			if _, err := sim.Run(c); err != nil {
				tb.Fatal(err)
			}
		})
	}
	s := run(short)
	return run(long) - s
}

// allocCase is one workload of the steady-state allocation tests.
type allocCase struct {
	name string
	cfg  sim.Config
}

// allocCases are the steady-state allocation tests' workloads: the
// sparse workload, whose e = 0.1 policy sleeps through most of each gap,
// and a fig3a cell per recharge process (K = 100), whose e = 0.5 policy
// spends most awake slots in always-on runs, so the sleep run, the
// always-on run (cut by battery samples) and every recharge fill are
// under test. Every run is observed. The fig3a cells used to switch the
// stats probe off, because its end-of-run report allocated only once a
// run was long enough (MSER's suffix sums, the battery summary), which
// a horizon comparison misreads as loop allocations; the report now
// allocates the same at any horizon. The tests set Engine, Slots, Batch
// and Workers.
func allocCases(tb testing.TB) []allocCase {
	cases := []allocCase{{"sparse-bernoulli", sparseConfig(tb, sim.EngineKernel, 1)}}
	for r, rc := range fig3Recharges {
		cases = append(cases, allocCase{"fig3a-" + rc.name, fig3CellConfig(tb, r, 100)})
	}
	return cases
}

// TestKernelSteadyStateAllocs checks the kernel's hot loop allocates
// nothing: on every allocCases workload, growing the run from 1 slot to
// 1M slots must not change the allocation count.
func TestKernelSteadyStateAllocs(t *testing.T) {
	for _, ac := range allocCases(t) {
		ac.cfg.Engine = sim.EngineKernel
		if a := loopAllocs(t, ac.cfg, 1, 1_000_000); a > 0 {
			t.Errorf("%s: kernel loop allocates: %v more allocs at 1M slots than at 1", ac.name, a)
		}
	}
}

// TestBatchSteadyStateAllocs checks a kernel batch allocates nothing in
// steady state on every allocCases workload. Growing the horizon T at
// fixed B must not change the allocation count (the slot loop is clean),
// and growing B at a fixed chunk count must not change it either (all
// per-replication state — RNG streams, battery, recharge — lives in the
// reusable per-chunk worker; the only B-sized cost is the one stats
// slice, a single allocation at any B). Two workers split either B
// evenly, so both B values below run in exactly two chunks.
func TestBatchSteadyStateAllocs(t *testing.T) {
	for _, ac := range allocCases(t) {
		cfg := ac.cfg
		cfg.Engine, cfg.Batch, cfg.Workers = sim.EngineKernel, 256, 2
		if a := loopAllocs(t, cfg, 100, 50_000); a > 0 {
			t.Errorf("%s: batch slot loop allocates: %v more allocs at T=50k than at T=100", ac.name, a)
		}
		perB := func(batch int) float64 {
			return steadyAllocs(func() {
				c := cfg
				c.Slots, c.Batch = 2_000, batch
				if _, err := sim.Run(c); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := perB(128), perB(2048); large > small {
			t.Errorf("%s: batch replication loop allocates: %v allocs at B=128, %v at B=2048", ac.name, small, large)
		}
	}
}

// TestMultiKernelSteadyStateAllocs checks the fleet kernel's hot loop
// allocates nothing: the dense battery slab, the per-sensor recharge
// streams and stats slice are per-run setup. A fleet run's setup is ~1MB
// of binomial fast-forward tables, enough for a GC cycle to start
// mid-measurement, which steadyAllocs rules out.
func TestMultiKernelSteadyStateAllocs(t *testing.T) {
	if a := loopAllocs(t, fleetConfig(t, sim.EngineKernel, 0), 1, 1_000_000); a > 0 {
		t.Errorf("fleet kernel loop allocates: %v more allocs at 1M slots than at 1", a)
	}
}

// TestSummarizeRoundsMath checks the overhead side of summarize and gate.
func TestSummarizeRoundsMath(t *testing.T) {
	m := summarize([]round{
		{Base: 100, Variant: 101},
		{Base: 110, Variant: 112}, // disturbed round
		{Base: 100, Variant: 100},
		{Base: 102, Variant: 104},
		{Base: 101, Variant: 102},
	})
	if m.MedianBaseNsPerOp != 101 || m.MedianVariantNsPerOp != 102 {
		t.Errorf("medians base=%d variant=%d, want 101/102", m.MedianBaseNsPerOp, m.MedianVariantNsPerOp)
	}
	if m.MedianOverheadPct != 1 {
		t.Errorf("median overhead %.3f, want 1", m.MedianOverheadPct)
	}
	// Base side spread 100..110 over median 101.
	if want := 100 * float64(10) / 101; m.NoiseFloorPct != want {
		t.Errorf("noise floor %.3f, want %.3f", m.NoiseFloorPct, want)
	}
	m.BudgetPct = 2
	if err := m.gate(); err != nil {
		t.Errorf("1%% median with ~10%% noise floor must pass a 2%% budget: %v", err)
	}
	if (measurement{MedianOverheadPct: 5, NoiseFloorPct: 0.5, BudgetPct: 2}).gate() == nil {
		t.Error("5% median with 0.5% noise floor must fail a 2% budget")
	}
}

// TestSummarizeSpeedupRoundsMath checks the speedup side of summarize and
// gate.
func TestSummarizeSpeedupRoundsMath(t *testing.T) {
	m := summarize([]round{
		{Base: 1000, Variant: 125},
		{Base: 1100, Variant: 130}, // disturbed round
		{Base: 1000, Variant: 140},
	})
	if m.MedianBaseNsPerOp != 1000 || m.MedianVariantNsPerOp != 130 {
		t.Errorf("medians base=%d variant=%d, want 1000/130", m.MedianBaseNsPerOp, m.MedianVariantNsPerOp)
	}
	if m.MedianSpeedup != 8 {
		t.Errorf("median speedup %.3f, want 8", m.MedianSpeedup)
	}
	if want := 100 * float64(100) / 1000; m.NoiseFloorPct != want {
		t.Errorf("noise floor %.3f, want %.3f", m.NoiseFloorPct, want)
	}
	m.MinSpeedup = 5
	if err := m.gate(); err != nil {
		t.Errorf("8x median must pass a 5x gate: %v", err)
	}
	if (measurement{MedianSpeedup: 4, NoiseFloorPct: 1, MinSpeedup: 5}).gate() == nil {
		t.Error("4x median with a 1% noise floor must fail a 5x gate")
	}
}
