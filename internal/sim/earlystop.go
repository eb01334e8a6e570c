package sim

// CI-targeted early stop (DESIGN.md §16): run a batched configuration
// in doubling rounds of replications and stop as soon as the QoM CI's
// relative half-width reaches the target. Reproducibility contract:
// a run that stops after R total replications is byte-identical to a
// plain Batch=R run of the same Config — round k's replications run at
// Seed + (replications already done), which is exactly the seed block
// a single Batch=R call would give them, and per-round Results merge
// the same way runBatchFallback merges per-replication runs. The
// StopDecision records everything needed to re-run the realized
// configuration without the monitor.

import (
	"fmt"

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

// StopDecision records how an early-stopped run ended, for the run
// manifest: the monitor's inputs, the replication count actually run,
// and the relative half-width it reached.
type StopDecision struct {
	TargetRelHW  float64 `json:"target_rel_hw"`
	MinReps      int     `json:"min_reps"`
	MaxReps      int     `json:"max_reps"`
	Reps         int     `json:"reps"`
	RelHalfWidth float64 `json:"rel_half_width"`
	// Stopped is true when the target was reached before MaxReps;
	// false means the run exhausted its replication budget.
	Stopped bool `json:"stopped"`
}

// RunWithEarlyStop executes cfg (which must have Batch > 1 — the
// replication budget) in doubling rounds, evaluating the QoM CI after
// each round and stopping once its relative half-width is at or under
// opt.TargetRelHW. The Result aggregates exactly the replications run,
// byte-identically to a plain Batch=R run at the realized R.
func RunWithEarlyStop(cfg Config, opt EarlyStopOptions) (*Result, *StopDecision, error) {
	if opt.TargetRelHW <= 0 {
		return nil, nil, fmt.Errorf("sim: early stop needs a positive relative half-width target, got %g", opt.TargetRelHW)
	}
	maxReps := cfg.Batch
	if maxReps < 2 {
		return nil, nil, fmt.Errorf("sim: early stop needs Batch > 1 as the replication budget, got %d", cfg.Batch)
	}
	minReps := opt.MinReps
	if minReps < 2 {
		minReps = 2
	}
	if minReps > maxReps {
		minReps = maxReps
	}
	mon := stats.ConvergenceMonitor{TargetRelHW: opt.TargetRelHW, MinCount: int64(minReps)}
	sink := cfg.StatsSink

	agg := &Result{Slots: cfg.Slots, Engine: EngineBatch}
	var reps stats.Welford
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
		if left := maxReps - done; size > left {
			size = left
		}
		// Round replications run at Seed+done .. Seed+done+size-1, the
		// plain Batch=R layout, and merge like runBatchFallback's.
		rr, err := runReplicas(cfg, agg, done, size, true)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: early-stop round at %d replications: %w", done, err)
		}
		if rr.Stats == nil {
			return nil, nil, fmt.Errorf("sim: early-stop round returned no stats report (engine %v)", rr.Engine)
		}
		// Fold the round's per-replication QoM samples in exactly (the
		// report's Welford reconstruction is lossless). A final
		// leftover round of size 1 runs the single-run path (Batch=1 is
		// a plain run) and reports batch means; it contributes one
		// replication sample, the same way ObserveReplica would.
		if size == 1 {
			if rr.Events > 0 {
				reps.Add(float64(rr.Captures) / float64(rr.Events))
			}
		} else {
			if rr.Stats.Method != stats.MethodReplication {
				return nil, nil, fmt.Errorf("sim: early-stop round reported method %q, want replication", rr.Stats.Method)
			}
			reps.Merge(rr.Stats.Welford())
		}
		done += size

		last = stats.ReplicationReport(reps, agg.Events, agg.Captures, stats.DefaultCILevel)
		if sink != nil {
			sink(last)
		}
		if mon.Converged(last) {
			break
		}
	}
	if cfg.Stats || sink != nil {
		r := last
		agg.Stats = &r
	}
	dec := &StopDecision{
		TargetRelHW:  opt.TargetRelHW,
		MinReps:      minReps,
		MaxReps:      maxReps,
		Reps:         done,
		RelHalfWidth: last.RelHalfWidth,
		Stopped:      done < maxReps,
	}
	return agg, dec, nil
}
