package sim

// CI-targeted early stop (DESIGN.md §16): run a batched configuration
// in doubling rounds of replications and stop as soon as the QoM CI's
// relative half-width reaches the target. Reproducibility contract:
// a run that stops after R total replications is byte-identical to a
// plain Batch=R run of the same Config, stats report included — the
// rounds are consecutive replication ranges [done, done+size) of one
// batch, run at the seeds a single Batch=R call would give them and fed
// to one stats probe in replication order. The obs.EarlyStopInfo it
// returns records everything needed to re-run the realized
// configuration without the monitor.

import (
	"fmt"

	"eventcap/internal/obs"
	"eventcap/internal/stats"
)

// EarlyStopOptions configures RunWithEarlyStop. TargetRelHW is the
// relative CI half-width at which replication stops; MinReps is the
// minimum number of replications before stopping is considered
// (defaults to 2 — a CI needs two samples).
type EarlyStopOptions struct {
	TargetRelHW float64
	MinReps     int
}

// RunWithEarlyStop executes cfg (which must have Batch > 1 — the
// replication budget) in doubling rounds, evaluating the QoM CI after
// each round and stopping once its relative half-width is at or under
// opt.TargetRelHW. The Result aggregates exactly the replications run,
// byte-identically to a plain Batch=R run at the realized R; the
// decision records how the run ended, for the run manifest.
func RunWithEarlyStop(cfg Config, opt EarlyStopOptions) (*Result, *obs.EarlyStopInfo, error) {
	if opt.TargetRelHW <= 0 {
		return nil, nil, fmt.Errorf("sim: early stop needs a positive relative half-width target, got %g", opt.TargetRelHW)
	}
	maxReps := cfg.Batch
	if maxReps < 2 {
		return nil, nil, fmt.Errorf("sim: early stop needs Batch > 1 as the replication budget, got %d", cfg.Batch)
	}
	minReps := min(max(opt.MinReps, 2), maxReps)
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	plan, quant, err := compile(&cfg)
	if err != nil {
		return nil, nil, err
	}
	// The monitor reads the stats probe, which the Result keeps only
	// when the caller asked for it.
	keepStats := cfg.Stats
	cfg.Stats = true
	b := newBatch(&cfg, plan, quant, maxReps)
	defer b.ex.End()

	mon := stats.ConvergenceMonitor{TargetRelHW: opt.TargetRelHW, MinCount: int64(minReps)}
	done := 0
	var last stats.Report
	for done < maxReps {
		size := minReps
		if done > 0 {
			// Doubling rounds amortize the per-round fixed cost while
			// keeping the overshoot past the smallest converged count
			// within 2×.
			size = done
		}
		size = min(size, maxReps-done)
		if err := b.run(&cfg, done, done+size); err != nil {
			return nil, nil, fmt.Errorf("sim: early-stop round at %d replications: %w", done, err)
		}
		done += size
		last = b.o.sp.Report()
		if mon.Converged(last) {
			break
		}
	}
	res := b.finish(&cfg, done)
	if !keepStats {
		res.Stats = nil
	}
	return res, &obs.EarlyStopInfo{
		TargetRelHW:  opt.TargetRelHW,
		MinReps:      minReps,
		MaxReps:      maxReps,
		Reps:         done,
		RelHalfWidth: last.RelHalfWidth,
		Stopped:      done < maxReps,
	}, nil
}
