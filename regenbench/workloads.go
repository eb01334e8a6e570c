package main

import (
	"embed"
	"fmt"
	"math"
	"strconv"
	"strings"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/experiments"
)

// refTolerance is how far any CSV cell may sit from the committed
// reference before a regeneration counts as failed. Cells are capture
// probabilities; at the default seed the seed code reproduces the
// references exactly, and at other seeds the cells differ by sampling
// noise only (at most 0.027 over seeds 2–10, 77 and 12345). The bound
// also lets a solver change that moves a policy slightly still pass,
// while a wrong policy or a broken engine does not.
const refTolerance = 0.05

// defaultSeed is the seed the references were generated at.
const defaultSeed = 1

// The references are the CSVs cmd/experiments writes at seed 1:
//
//	pi-solve: experiments -run fig4b -quick
//	fi-batch: experiments -run fig3a -batch 32
//	fleet:    experiments -run fig6a -quick -slots 1000000
//
//go:embed ref/*.csv
var refFS embed.FS

// workload is one figure regeneration the benchmark times.
type workload struct {
	name string
	exp  string // experiments registry id
	// opts holds the figure's size; Seed, Workers and Stats are set per
	// regeneration.
	opts experiments.Options
	// dist is the figure's inter-arrival law, the input of the dist and
	// core probes.
	dist func() (dist.Interarrival, error)
	// inputs lists every policy input the experiment requests, in
	// the order they request them; the traced run pre-solves these.
	inputs func(d dist.Interarrival) []solveInput
}

var workloads = []workload{
	{
		// fig4b quick: the clustering search on heavy-tailed Pareto(2,10)
		// is ~99% of the CPU, simulation ~0.3%.
		name: "pi-solve",
		exp:  "fig4b",
		opts: experiments.Options{Quick: true},
		dist: func() (dist.Interarrival, error) { return dist.NewPareto(2, 10) },
		inputs: func(d dist.Interarrival) []solveInput {
			// fig4's quick sweep keeps the first, middle and last recharge
			// amounts c, at rate e = q·c with q = 0.5.
			var in []solveInput
			for _, c := range []float64{0.5, 1.5, 2.5} {
				in = append(in, robustInputs(d, 0.5*c)...)
			}
			return in
		},
	},
	{
		// fig3a at the paper's T = 1e6 with 32 replications per point:
		// 960M simulated slots behind one GreedyFI solve.
		name: "fi-batch",
		exp:  "fig3a",
		opts: experiments.Options{Slots: 1_000_000, Batch: 32},
		dist: weibull,
		inputs: func(d dist.Interarrival) []solveInput {
			return []solveInput{{d: d, e: 0.5}}
		},
	},
	{
		// fig6a quick sweep (N = 1, 7, 12) at T = 1e6: greedy-FI and
		// clustering at aggregate rates, round-robin fleet kernels and
		// ModeBlocks fleets on the reference engine.
		name: "fleet",
		exp:  "fig6a",
		opts: experiments.Options{Quick: true, Slots: 1_000_000},
		dist: weibull,
		inputs: func(d dist.Interarrival) []solveInput {
			// Per-sensor rate e = q·c with q = 0.1, c = 1; both policies
			// are solved at the aggregate rate N·e.
			e := 0.1 * 1.0
			var in []solveInput
			for _, n := range []int{1, 7, 12} {
				agg := float64(n) * e
				in = append(in, solveInput{d: d, e: agg})
				in = append(in, robustInputs(d, agg)...)
			}
			return in
		},
	},
}

func weibull() (dist.Interarrival, error) { return dist.NewWeibull(40, 3) }

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// solveInput is one cached-solver request: GreedyFICached when copts is
// nil, OptimizeClusteringCached otherwise.
type solveInput struct {
	d     dist.Interarrival
	e     float64
	copts *core.ClusteringOptions
}

func (s solveInput) String() string {
	if s.copts == nil {
		return fmt.Sprintf("GreedyFICached(%s, e=%g)", s.d.Name(), s.e)
	}
	return fmt.Sprintf("OptimizeClusteringCached(%s, e=%g, MaxGap=%d, CoarsePoints=%d)",
		s.d.Name(), s.e, s.copts.MaxGap, s.copts.CoarsePoints)
}

// robustInputs mirrors the quick-mode candidates of the experiments
// package's robust clustering pick: the base search and a gap-capped
// one. A drift between the two is caught by the attribution guard.
func robustInputs(d dist.Interarrival, e float64) []solveInput {
	base := core.ClusteringOptions{CoarsePoints: 8, MaxGap: 512}
	capped := base
	capped.MaxGap = 16 * int(d.Mean()+1)
	if capped.MaxGap < 8 {
		capped.MaxGap = 8
	}
	if capped.MaxGap > base.MaxGap {
		capped.MaxGap = base.MaxGap
	}
	return []solveInput{{d: d, e: e, copts: &base}, {d: d, e: e, copts: &capped}}
}

// csvTable is a parsed figure CSV: the header and the numeric cells.
type csvTable struct {
	header []string
	rows   [][]float64
}

func parseCSV(s string) (*csvTable, error) {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("csv has %d lines, want a header and rows", len(lines))
	}
	t := &csvTable{header: strings.Split(lines[0], ",")}
	for i, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != len(t.header) {
			return nil, fmt.Errorf("csv row %d has %d cells, header has %d", i+1, len(cells), len(t.header))
		}
		row := make([]float64, len(cells))
		for j, c := range cells {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("csv row %d column %q: bad number %q", i+1, t.header[j], c)
			}
			row[j] = v
		}
		t.rows = append(t.rows, row)
	}
	return t, nil
}

func loadReference(name string) (*csvTable, error) {
	data, err := refFS.ReadFile("ref/" + name + ".csv")
	if err != nil {
		return nil, fmt.Errorf("loading reference: %w", err)
	}
	return parseCSV(string(data))
}

// maxAbsDev checks got against the reference: same header and sweep
// axis, every cell a probability within refTolerance of its reference
// cell. It returns the largest |cell − reference| over the value cells.
func maxAbsDev(got string, ref *csvTable) (float64, error) {
	t, err := parseCSV(got)
	if err != nil {
		return 0, err
	}
	if strings.Join(t.header, ",") != strings.Join(ref.header, ",") {
		return 0, fmt.Errorf("csv header %q, reference %q", t.header, ref.header)
	}
	if len(t.rows) != len(ref.rows) {
		return 0, fmt.Errorf("csv has %d rows, reference %d", len(t.rows), len(ref.rows))
	}
	dev := 0.0
	for i, row := range t.rows {
		if row[0] != ref.rows[i][0] { // floateq:ok the sweep axis is printed from the same constants
			return 0, fmt.Errorf("row %d: sweep value %g, reference %g", i+1, row[0], ref.rows[i][0])
		}
		for j := 1; j < len(row); j++ {
			v := row[j]
			if v < 0 || v > 1 {
				return 0, fmt.Errorf("row %d column %q: %g is not a probability", i+1, t.header[j], v)
			}
			d := math.Abs(v - ref.rows[i][j])
			if d > refTolerance {
				return 0, fmt.Errorf("row %d column %q: %g is %g from reference %g (tolerance %g)",
					i+1, t.header[j], v, d, ref.rows[i][j], refTolerance)
			}
			dev = math.Max(dev, d)
		}
	}
	return dev, nil
}
