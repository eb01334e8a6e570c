package sim

import "eventcap/internal/stats"

// statsBatteryDecimate thins the battery-occupancy stream inside the
// probe: engines hand over every batterySampleStride-th slot (the
// stream Metrics histograms), and the probe keeps every
// statsBatteryDecimate-th of those. The three P² marker updates per
// kept sample are the probe's only per-sample cost that is not O(1)
// cheap, and quantiles of a quasi-stationary occupancy stream are
// insensitive to an 8× thinning — this is what keeps the whole probe
// inside the ≤2% slot-loop budget (TestBenchGates/stats).
const statsBatteryDecimate = 8

// StatsProbe accumulates the streaming statistics of DESIGN.md §16
// alongside a run: the per-event QoM indicator stream (batch means →
// CI), per-replication QoM samples on batches, and the
// sampled battery-occupancy stream. It is RNG-neutral under the
// observer's contract, like Metrics: it never consumes a random draw,
// and where its battery sampling ends an always-on run or a loop chunk
// moves no draw, so results are byte-identical with the probe attached
// or not (asserted by TestStatsDoNotChangeResults).
//
// Engines feed it single-threaded: every observation happens on the
// run's coordinating goroutine (a batch's chunks only record
// per-replication counts, fed to the probe after the join), so the
// probe carries no locks.
type StatsProbe struct {
	qom  stats.BatchMeans
	reps stats.Welford

	repEvents   int64
	repCaptures int64

	bat           stats.Welford
	batSkip       int
	p10, p50, p90 *stats.P2Quantile
}

// newStatsProbe returns the run's probe, or nil unless Config.Stats
// asks for one.
func newStatsProbe(cfg *Config) *StatsProbe {
	if !cfg.Stats {
		return nil
	}
	return &StatsProbe{
		p10: stats.NewP2Quantile(0.10),
		p50: stats.NewP2Quantile(0.50),
		p90: stats.NewP2Quantile(0.90),
	}
}

// ObserveEvent folds one event's capture indicator into the QoM
// stream, in slot order.
func (sp *StatsProbe) ObserveEvent(captured bool) {
	if captured {
		sp.qom.Add(1)
	} else {
		sp.qom.Add(0)
	}
}

// ObserveMisses folds n missed events in at once — the kernel's
// fast-forwarded sleep runs resolve their events in bulk. Exactly
// equivalent to n ObserveEvent(false) calls.
func (sp *StatsProbe) ObserveMisses(n int64) {
	if n <= 0 {
		return
	}
	sp.qom.AddN(0, n)
}

// ObserveBattery folds one battery-occupancy sample (fraction of
// capacity) in. Engines sample sensor 0 every batterySampleStride
// slots, the same stream Metrics histograms; the probe keeps every
// statsBatteryDecimate-th sample (deterministic in the call sequence,
// so reports stay bit-reproducible).
func (sp *StatsProbe) ObserveBattery(frac float64) {
	sp.batSkip++
	if sp.batSkip < statsBatteryDecimate {
		return
	}
	sp.batSkip = 0
	sp.bat.Add(frac)
	sp.p10.Add(frac)
	sp.p50.Add(frac)
	sp.p90.Add(frac)
}

// ObserveReplica folds one replication's event totals in (batches
// observe at replication granularity). Replications are fed in
// replication order; a replication without events contributes to the
// totals but not to the per-replication QoM sample.
func (sp *StatsProbe) ObserveReplica(events, captures int64) {
	sp.repEvents += events
	sp.repCaptures += captures
	if events > 0 {
		sp.reps.Add(float64(captures) / float64(events))
	}
}

// Report builds the probe's current report: the replication method
// when replications were observed, batch means otherwise, plus the
// battery summary when the occupancy stream was sampled.
func (sp *StatsProbe) Report() stats.Report {
	var r stats.Report
	if sp.reps.N > 0 || sp.repEvents > 0 {
		r = stats.ReplicationReport(sp.reps, sp.repEvents, sp.repCaptures, stats.DefaultCILevel)
	} else {
		r = stats.QoMReport(&sp.qom, stats.DefaultCILevel)
	}
	if sp.bat.N > 0 {
		r.Battery = &stats.BatteryReport{
			Count:  sp.bat.N,
			Mean:   sp.bat.Mean,
			StdDev: sp.bat.StdDev(),
			P10:    sp.p10.Value(),
			P50:    sp.p50.Value(),
			P90:    sp.p90.Value(),
		}
	}
	return r
}

// finish attaches the final report to res. Nil-safe so engine
// epilogues can call it unconditionally.
func (sp *StatsProbe) finish(res *Result) {
	if sp == nil {
		return
	}
	r := sp.Report()
	res.Stats = &r
}
