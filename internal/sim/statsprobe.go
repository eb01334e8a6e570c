package sim

import "eventcap/internal/stats"

// statsProbe accumulates the streaming statistics of DESIGN.md §16
// alongside every run: the per-event QoM indicator stream (batch means
// → CI) and, on batches, per-replication QoM samples. Battery
// occupancy is Metrics' alone. Like every sink of the run observer it
// never consumes a random draw.
//
// Engines feed it single-threaded: every observation happens on the
// run's coordinating goroutine (a batch's chunks only record
// per-replication counts, fed to the probe after the join), so the
// probe carries no locks. Its report is built once per run and
// allocates nothing beyond the Report itself.
type statsProbe struct {
	qom  stats.BatchMeans
	reps stats.Welford

	repEvents   int64
	repCaptures int64
}

// observeEvent folds one event's capture indicator into the QoM
// stream, in slot order.
func (sp *statsProbe) observeEvent(captured bool) {
	if captured {
		sp.qom.Add(1)
	} else {
		sp.qom.Add(0)
	}
}

// observeMisses folds n missed events in at once — the kernel's
// fast-forwarded sleep runs resolve their events in bulk. Exactly
// equivalent to n observeEvent(false) calls.
func (sp *statsProbe) observeMisses(n int64) {
	if n <= 0 {
		return
	}
	sp.qom.AddN(0, n)
}

// observeReplica folds one replication's event totals in (batches
// observe at replication granularity). Replications are fed in
// replication order; a replication without events contributes to the
// totals but not to the per-replication QoM sample.
func (sp *statsProbe) observeReplica(events, captures int64) {
	sp.repEvents += events
	sp.repCaptures += captures
	if events > 0 {
		sp.reps.Add(float64(captures) / float64(events))
	}
}

// report builds the probe's current report: the replication method
// when replications were observed, batch means otherwise.
func (sp *statsProbe) report() stats.Report {
	if sp.reps.N > 0 || sp.repEvents > 0 {
		return stats.ReplicationReport(sp.reps, sp.repEvents, sp.repCaptures, stats.DefaultCILevel)
	}
	return stats.QoMReport(&sp.qom, stats.DefaultCILevel)
}
