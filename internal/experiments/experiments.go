// Package experiments defines one runnable experiment per table and
// figure of the paper's evaluation (Section VI), plus the ablations
// listed in DESIGN.md. Each experiment regenerates the corresponding
// series — same workloads, parameters, and sweep axes — and renders them
// as ASCII tables and CSV. The cmd/experiments binary, the root
// benchmarks, and EXPERIMENTS.md are all driven from this registry.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"eventcap/internal/obs"
	"eventcap/internal/sim"
	"eventcap/internal/stats"
	"eventcap/internal/trace"
)

// Options control an experiment run.
type Options struct {
	// Slots is the simulated duration T (default 1,000,000, the paper's
	// setting).
	Slots int64
	// Seed drives all randomness (default 1).
	Seed uint64
	// Quick shrinks sweeps and horizons for smoke tests and benchmarks.
	Quick bool
	// Workers bounds the worker pool that sweep points and replications
	// fan out on (default: one per CPU). Results are identical for any
	// value; 1 forces fully sequential execution.
	Workers int
	// Engine selects the simulation engine for every run the experiment
	// performs (default sim.EngineAuto: the compiled kernel where
	// eligible, the reference engine otherwise).
	Engine sim.Engine
	// Tracer, when set, writes a slot-level trace of every simulation
	// the experiment performs. The writer is one stream shared by all
	// sweep points, so withDefaults forces Workers to 1: points run
	// sequentially and the trace's run order is deterministic. Results
	// are unchanged (tracing is RNG-neutral and results are
	// worker-invariant). sim.Run refuses a Tracer together with
	// Batch > 1.
	Tracer *trace.Writer
	// Batch, when > 1, runs every simulation as B independent
	// replications at seeds Seed..Seed+B-1 and aggregates them
	// (sim.Config.Batch), on whichever engine runs the simulation.
	// Sweep points then report replication-averaged QoM rather than a
	// single trajectory.
	Batch int
	// Span, when non-nil, is the experiment's phase span: every
	// simulation the experiment performs forks a "sim.run" child under
	// it (concurrent sweep points get their own lanes), and drivers with
	// an explicit policy-solve step mark it with SolvePhase. RNG-neutral
	// like Tracer — CSVs are byte-identical with or without it.
	Span *obs.Span
	// Stats, when non-nil, pools the streaming QoM report of every
	// simulation the experiment performs (sim.Result.Stats) into one
	// experiment-level estimate.
	Stats *StatsCollector
}

// StatsCollector pools the streaming QoM reports of every simulation an
// experiment performs into one experiment-level estimate. Sweep points
// run concurrently, so all mutation is mutex-guarded, and the pooled
// report does not depend on the order they finish in. The zero value is
// ready to use.
type StatsCollector struct {
	mu   sync.Mutex
	pool stats.Pool
}

// observe folds one finished simulation into the pool.
func (c *StatsCollector) observe(res *sim.Result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pool.Add(*res.Stats)
}

// Report returns the pooled QoM report over every simulation observed
// so far; ok is false before the first one.
func (c *StatsCollector) Report() (stats.Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pool.Runs() == 0 {
		return stats.Report{}, false
	}
	return c.pool.Report(stats.DefaultCILevel), true
}

func (o Options) withDefaults() Options {
	if o.Slots <= 0 {
		o.Slots = 1_000_000
		if o.Quick {
			o.Slots = 100_000
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Tracer != nil {
		o.Workers = 1
	}
	return o
}

// runSim is the one simulation entry point the experiment drivers use:
// sim.Run with the options' tracer, batch and span attached, its stats
// report pooled into the options' collector. Every run feeds the
// process-wide obs totals that cmd/experiments snapshots into run
// manifests. The tracer and span are RNG-neutral, so results are
// identical to a bare sim.Run at the same batch.
func runSim(opts Options, cfg sim.Config) (*sim.Result, error) {
	cfg.Tracer = opts.Tracer
	if opts.Batch > 1 {
		cfg.Batch = opts.Batch
	}
	sp := opts.Span.Fork("sim.run")
	defer sp.End()
	cfg.Span = sp
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	opts.Stats.observe(res)
	return res, nil
}

// SolvePhase marks an explicit policy-solve step on the options' span:
// call it before solving, run the solve, then call the returned func.
// Solves run inside pool jobs (concurrent sweep points), so each gets a
// lane of its own, as runSim's sim.run spans do. A no-op without a span.
func (o Options) SolvePhase() func() {
	sp := o.Span.Fork("solve")
	return sp.End
}

// Series is one labelled curve of a figure.
type Series struct {
	Name string
	Y    []float64 // aligned with the parent Table's X
}

// Table is the regenerated data behind one paper figure/table.
type Table struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
	// Notes document substitutions, parameters, and reading guidance.
	Notes []string
}

// Experiment is a registered, runnable reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Table, error)
}

// All returns every registered experiment, figures first, in a stable
// order.
func All() []Experiment {
	exps := []Experiment{
		{ID: "fig3a", Title: "Fig 3(a): U_K(pi*_FI) vs battery capacity K", Run: runFig3a},
		{ID: "fig3b", Title: "Fig 3(b): U_K(pi'_PI) vs battery capacity K", Run: runFig3b},
		{ID: "fig4a", Title: "Fig 4(a): policy comparison, Weibull(40,3)", Run: runFig4a},
		{ID: "fig4b", Title: "Fig 4(b): policy comparison, Pareto(2,10)", Run: runFig4b},
		{ID: "fig5a", Title: "Fig 5(a): clustering vs EBCW, Markov events, b=0.2", Run: runFig5a},
		{ID: "fig5b", Title: "Fig 5(b): clustering vs EBCW, Markov events, b=0.7", Run: runFig5b},
		{ID: "fig6a", Title: "Fig 6(a): multi-sensor QoM vs N", Run: runFig6a},
		{ID: "fig6b", Title: "Fig 6(b): multi-sensor QoM vs recharge c", Run: runFig6b},
		{ID: "ablation-lp", Title: "Ablation: Theorem 1 greedy vs simplex LP", Run: runAblationLP},
		{ID: "ablation-windows", Title: "Ablation: clustering vs window refinement", Run: runAblationWindows},
		{ID: "ablation-pomdp", Title: "Ablation: POMDP information-state growth and optimality gap", Run: runAblationPOMDP},
		{ID: "ablation-recharge", Title: "Ablation: recharge-process independence", Run: runAblationRecharge},
		{ID: "ablation-loadbalance", Title: "Ablation: M-FI load balancing", Run: runAblationLoadBalance},
		{ID: "ablation-poisson", Title: "Ablation: memoryless events (the Poisson exception)", Run: runAblationPoisson},
		{ID: "ablation-adaptive", Title: "Ablation: online distribution learning", Run: runAblationAdaptive},
		{ID: "ablation-faults", Title: "Ablation: sensor-failure resilience", Run: runAblationFaults},
		{ID: "ablation-multipoi", Title: "Ablation: multi-PoI hazard-index extension", Run: runAblationMultiPoI},
	}
	return exps
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ASCII renders the table for terminal output.
func (t *Table) ASCII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	header := make([]string, 0, len(t.Series)+1)
	header = append(header, t.XLabel)
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	widths := make([]int, len(header))
	rows := make([][]string, len(t.X))
	for i, x := range t.X {
		row := make([]string, 0, len(header))
		row = append(row, trimFloat(x))
		for _, s := range t.Series {
			cell := ""
			if i < len(s.Y) {
				cell = fmt.Sprintf("%.4f", s.Y[i])
			}
			row = append(row, cell)
		}
		rows[i] = row
	}
	for c, h := range header {
		widths[c] = len(h)
		for _, row := range rows {
			if len(row[c]) > widths[c] {
				widths[c] = len(row[c])
			}
		}
	}
	writeRow := func(cells []string) {
		for c, cell := range cells {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[c], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	cols := []string{csvEscape(t.XLabel)}
	for _, s := range t.Series {
		cols = append(cols, csvEscape(s.Name))
	}
	b.WriteString(strings.Join(cols, ","))
	b.WriteByte('\n')
	for i, x := range t.X {
		row := []string{trimFloat(x)}
		for _, s := range t.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.6f", s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.4f", x)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// seriesFromColumns transposes per-sweep-point result rows into
// labelled series: column k of points becomes the series names[k].
// Every row must have len(names) entries.
func seriesFromColumns(points [][]float64, names ...string) []Series {
	out := make([]Series, len(names))
	for k, name := range names {
		y := make([]float64, len(points))
		for i, pt := range points {
			y[i] = pt[k]
		}
		out[k] = Series{Name: name, Y: y}
	}
	return out
}
