package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Progress tracks a batch of pool jobs for live sweep reporting. It
// implements the parallel package's Observer shape (Enqueued / Started /
// Finished) without importing it, so the dependency points pool → obs.
//
// Totals only grow: a sweep that runs several experiments keeps one
// Progress across all of them, and the rendered line reflects
// everything enqueued so far. Only driver-level jobs reach the observer
// — engine-internal fan-out (batch chunks) runs on parallel.MapInner, which skips observer callbacks, so job counts
// and the ETA are not inflated by nested pools.
//
// Beyond jobs, drivers report slot-level work units (AddWork /
// FinishWork): one unit per simulated slot, B×T for a batch run and
// N×T for an N-sensor fleet, so the line carries a slots/s throughput
// and the ETA can weight jobs by their true size under -batch and fig6
// fleets.
type Progress struct {
	total   atomic.Int64
	started atomic.Int64
	done    atomic.Int64
	errs    atomic.Int64
	busyNs  atomic.Int64 // summed job wall time, for the mean-latency display
	startNs atomic.Int64 // first-enqueue timestamp (UnixNano), set once

	workTotal atomic.Int64 // slot units declared by started simulations
	workDone  atomic.Int64 // slot units completed

	nowFunc func() time.Time
}

// NewProgress returns a Progress reporting wall time with time.Now.
func NewProgress() *Progress { return &Progress{nowFunc: time.Now} }

func (p *Progress) now() time.Time {
	if p.nowFunc == nil {
		return time.Now()
	}
	return p.nowFunc()
}

// Enqueued records n jobs entering a pool.
func (p *Progress) Enqueued(n int) {
	p.total.Add(int64(n))
	p.startNs.CompareAndSwap(0, p.now().UnixNano())
}

// Started records one job beginning execution.
func (p *Progress) Started() { p.started.Add(1) }

// Finished records one job completing after d.
func (p *Progress) Finished(d time.Duration, err error) {
	p.busyNs.Add(int64(d))
	if err != nil {
		p.errs.Add(1)
	}
	p.done.Add(1)
}

// AddWork declares n slot units of upcoming work (a simulation's
// Slots × replications × sensors). Nil-safe so instrumented call sites
// need no branches.
func (p *Progress) AddWork(n int64) {
	if p == nil || n <= 0 {
		return
	}
	p.workTotal.Add(n)
	p.startNs.CompareAndSwap(0, p.now().UnixNano())
}

// FinishWork marks n previously-declared slot units complete.
func (p *Progress) FinishWork(n int64) {
	if p == nil || n <= 0 {
		return
	}
	p.workDone.Add(n)
}

// Done returns jobs finished and jobs enqueued so far.
func (p *Progress) Done() (done, total int64) {
	return p.done.Load(), p.total.Load()
}

// Work returns slot units finished and declared so far.
func (p *Progress) Work() (done, total int64) {
	return p.workDone.Load(), p.workTotal.Load()
}

// humanCount renders a slot count compactly (2.5M, 340k, 900).
func humanCount(n float64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.3gG", n/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.3gM", n/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.3gk", n/1e3)
	default:
		return fmt.Sprintf("%.0f", n)
	}
}

// Line renders one status line: jobs done/total, percentage, mean job
// latency, slot throughput, and an ETA from the observed wall-clock
// completion rate — elapsed × remaining/completed, measured over
// whole driver-level jobs, so the achieved parallelism is priced in
// automatically (the fixed mean×remaining/workers formula undercounted
// whenever jobs differ in size, as batch replications and fleet runs
// do). It never allocates beyond the returned string, so a ticker can
// call it freely.
func (p *Progress) Line() string {
	done, total := p.done.Load(), p.total.Load()
	if total == 0 {
		return "progress: no jobs enqueued yet"
	}
	pct := 100 * float64(done) / float64(total)
	line := fmt.Sprintf("progress: %d/%d jobs (%.0f%%)", done, total, pct)
	if done > 0 {
		mean := time.Duration(p.busyNs.Load() / done)
		line += fmt.Sprintf(", avg %s/job", mean.Round(time.Millisecond))
	}
	var elapsed time.Duration
	if s := p.startNs.Load(); s != 0 {
		elapsed = p.now().Sub(time.Unix(0, s))
	}
	wd, wt := p.workDone.Load(), p.workTotal.Load()
	if wd > 0 {
		line += fmt.Sprintf(", %s slots", humanCount(float64(wd)))
		if sec := elapsed.Seconds(); sec > 0 {
			line += fmt.Sprintf(" @ %s/s", humanCount(float64(wd)/sec))
		}
	}
	// Two ETA estimates, take the larger: whole-job extrapolation
	// (elapsed × remaining/completed) covers jobs not yet started but
	// needs a completed job; the slot-unit rate covers declared,
	// partially-finished work — a half-done 10⁷-slot batch point that
	// whole-job extrapolation cannot see inside, and the only estimate
	// available while a single -batch job is still in flight.
	var eta time.Duration
	if rem := total - done; rem > 0 && done > 0 {
		eta = time.Duration(float64(elapsed) * float64(rem) / float64(done))
	}
	if wd > 0 && wt > wd && elapsed > 0 {
		if wb := time.Duration(float64(elapsed) * float64(wt-wd) / float64(wd)); wb > eta {
			eta = wb
		}
	}
	if eta > 0 && done < total {
		line += fmt.Sprintf(", eta %s", eta.Round(time.Second))
	}
	if e := p.errs.Load(); e > 0 {
		line += fmt.Sprintf(", %d failed", e)
	}
	return line
}
