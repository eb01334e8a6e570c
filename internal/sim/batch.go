package sim

import (
	"fmt"

	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/obs"
	"eventcap/internal/parallel"
)

// The mega-batch engine simulates Config.Batch statistically independent
// replications of one compiled configuration in a single call, sharing
// everything a replication does not own: the activation table with its
// zero runs, the event distribution's quantile table, and the Bernoulli
// recharge's binomial tables are built once and read by every
// replication; per-replication state (RNG sources, batteries, a stateful
// recharge's phase) lives in a fixed set of values reset in place, so
// the steady-state loop allocates nothing per replication.
//
// Coordinated configurations (one sensor or a round-robin fleet) run
// each replication through the kernel's own loop, fleetRun.run, at seed
// Seed + r; decoupled fleets run batchIndepWorker (batch_multi.go).
// Replication r therefore reproduces the run this Config would produce
// at Seed + r byte for byte, with Metrics on or off. The chunk sharding
// and worker count never touch the streams, so results are
// byte-identical across every Workers setting.

// maxBatchChunk caps the replications per chunk. Chunks are the unit of
// worker parallelism and of state reuse: runBatch splits the batch
// evenly across the resolved workers (⌈Batch/workers⌉ replications per
// chunk, so every worker gets a share of even a small batch), and the
// cap keeps a 10⁵-replication batch in enough chunks to balance load
// while still amortizing per-chunk state (battery, recharge instance,
// RNG values) across many replications.
const maxBatchChunk = 1024

// batchPlan is a validated, instantiated batch configuration: the kernel
// plan plus the batch-only shared tables. Exactly one of kernel and
// indep is non-nil: kernel covers the coordinated configurations
// (single sensor and round-robin fleets, one shared table), indep the
// decoupled ModeAll+PartialInfo fleets (one table per sensor over its
// private capture clock).
type batchPlan struct {
	kernel *kernelPlan
	indep  []indepSensorPlan
	// quant replaces Dist.Sample's per-gap transcendentals with an exact
	// threshold lookup when the distribution exposes its inversion map
	// (dist.InverseSampler); nil otherwise, falling back to Dist.Sample.
	quant *dist.QuantileTable
}

func (p *batchPlan) sensors() int {
	if p.indep != nil {
		return len(p.indep)
	}
	return p.kernel.n
}

// resettable matches per-run state that can be restored in place
// (energy.Periodic's phase); stateless processes don't implement it.
type resettable interface{ Reset() }

// batchReusable reports whether a chunk worker may start replications on
// rech as-is: either the process is stateless or its state resets.
func batchReusable(rech energy.FastForwarder) bool {
	if _, ok := rech.(resettable); ok {
		return true
	}
	switch rech.(type) {
	case *energy.Bernoulli, *energy.Constant:
		return true
	default:
		return false
	}
}

// compileBatch probes whether cfg (already validated) can run on the
// batch engine. It returns the plan, or nil and the structural fallback
// reason. Eligibility is the kernel's (or, for decoupled fleets, the
// independent engine's, without fault injection: a truncated sensor is
// cheap on the per-replication fallback and rare enough not to earn a
// batched loop) plus two batch-only conditions: no slot tracer (the
// engine reports aggregates, never slot records), and recharge
// processes whose per-run state — if any — can be reset between
// replications. sp (nilable) is the caller's "compile" span; the
// quantile-table build gets its own child under it.
func compileBatch(cfg *Config, sp *obs.Span) (*batchPlan, fallback) {
	if cfg.Tracer != nil {
		return nil, fallback{"tracer", "slot tracing requested"}
	}
	plan := &batchPlan{}
	var rechs []energy.FastForwarder
	kp, fb := compileKernel(cfg)
	switch {
	case kp != nil:
		plan.kernel, rechs = kp, kp.recharges
	case !cfg.independentSensors():
		return nil, fb
	case len(cfg.FailAt) > 0:
		return nil, fallback{"fault", "fault injection requested"}
	default:
		if plan.indep, fb = compileIndependent(cfg); plan.indep == nil {
			return nil, fb
		}
		for s := range plan.indep {
			rechs = append(rechs, plan.indep[s].recharge)
		}
	}
	for _, r := range rechs {
		if !batchReusable(r) {
			return nil, fallback{"recharge", fmt.Sprintf("recharge %s carries per-run state without Reset", r.Name())}
		}
	}
	tsp := sp.Child("batch.table")
	if s := dist.AsInverseSampler(cfg.Dist); s != nil {
		plan.quant = dist.NewQuantileTable(s)
	}
	tsp.End()
	return plan, fallback{}
}

// runBatch executes the batch: replications are sharded into chunks
// (see maxBatchChunk) and the chunks mapped across the worker pool; each
// chunk owns one batch runner whose state is reset per replication.
func runBatch(cfg Config, plan *batchPlan) (*Result, error) {
	reps := cfg.Batch
	if reps < 1 {
		reps = 1
	}
	workers := parallel.Workers(cfg.Workers)
	chunk := (reps + workers - 1) / workers
	if chunk > maxBatchChunk {
		chunk = maxBatchChunk
	}
	numChunks := (reps + chunk - 1) / chunk
	if plan.kernel != nil {
		for _, p := range plan.kernel.policies {
			p.Reset()
		}
	} else {
		for s := range plan.indep {
			plan.indep[s].policy.Reset()
		}
	}

	// Replication r's sensors occupy the rep-major block [r·n, (r+1)·n),
	// matching runBatchFallback's append order.
	n := plan.sensors()
	res := &Result{Slots: cfg.Slots, Sensors: make([]SensorStats, reps*n), Engine: EngineBatch}
	sensors := res.Sensors
	o := newObserver(&cfg, 0) // no trace engine code: compileBatch declines tracers
	// The stats probe observes at replication granularity (mirroring
	// Metrics.mergeReplica): chunks record their replications' event
	// totals at disjoint indices, and the feed happens in replication
	// order after the join.
	var repCounts [][2]int64
	if o.sp != nil {
		repCounts = make([][2]int64, reps)
	}

	ex := cfg.Span.Child("exec.batch")
	defer ex.End()
	ex.Count("replications", int64(reps))
	ex.Count("chunks", int64(numChunks))
	ex.Count("slots", cfg.Slots*int64(reps)*int64(n))

	type chunkOut struct {
		events, captures int64
		m                *Metrics
	}
	outs, err := parallel.MapInner(workers, numChunks, func(ci int) (chunkOut, error) {
		csp := ex.Fork("chunk")
		defer csp.End()
		var fw *fleetRun
		var iw *batchIndepWorker
		var err error
		if plan.indep != nil {
			iw, err = newBatchIndepWorker(&cfg, plan)
		} else {
			fw, err = newBatchFleetRun(&cfg, plan)
		}
		if err != nil {
			return chunkOut{}, err
		}
		co := newPart(&cfg, 0)
		out := chunkOut{m: co.m}
		lo := ci * chunk
		hi := lo + chunk
		if hi > reps {
			hi = reps
		}
		csp.Count("replications", int64(hi-lo))
		for r := lo; r < hi; r++ {
			// Batch Metrics define battery occupancy on replication 0
			// only; the probe's battery stream stays off on batches.
			co.sampling = co.m != nil && r == 0
			var ev, cp int64
			if iw != nil {
				ev, cp = iw.simulate(&cfg, plan, uint64(r), sensors[r*n:(r+1)*n], &co)
			} else {
				ev, cp = fw.run(&cfg, cfg.Seed+uint64(r), sensors[r*n:(r+1)*n], &co)
			}
			if repCounts != nil {
				repCounts[r] = [2]int64{ev, cp}
			}
			out.events += ev
			out.captures += cp
		}
		cfg.Progress.FinishWork(cfg.Slots * int64(hi-lo) * int64(n))
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	agg := ex.Child("aggregate")
	for _, c := range outs {
		res.Events += c.events
		res.Captures += c.captures
		if o.m != nil {
			// Only replication 0's chunk carries battery-occupancy
			// observations, so a plain Merge preserves the replication-0
			// occupancy convention (see Metrics.mergeReplica).
			o.m.Merge(c.m)
		}
	}
	for _, rc := range repCounts {
		o.sp.ObserveReplica(rc[0], rc[1])
	}
	o.finish(res)
	agg.End()
	return res, nil
}

// chunkRecharge hands a chunk its own instance of the plan's recharge
// process: the shared instance when stateless, a fresh prepared instance
// (reset before every replication) otherwise — chunks run concurrently,
// so a stateful process can never be shared.
func chunkRecharge(cfg *Config, shared energy.FastForwarder) (energy.FastForwarder, resettable, error) {
	if _, stateful := shared.(resettable); !stateful {
		return shared, nil, nil
	}
	fresh, ok := cfg.NewRecharge().(energy.FastForwarder)
	if !ok {
		return nil, nil, fmt.Errorf("sim: recharge factory stopped producing fast-forwardable processes")
	}
	if prep, ok := fresh.(energy.FastForwardPreparer); ok {
		prep.PrepareFastForward(prepareRunLength)
	}
	rst, _ := fresh.(resettable)
	return fresh, rst, nil
}

// newBatchFleetRun builds one chunk's fleetRun over the chunk's own
// recharge instances and the plan's shared quantile table.
func newBatchFleetRun(cfg *Config, plan *batchPlan) (*fleetRun, error) {
	rechs := make([]energy.FastForwarder, plan.kernel.n)
	for s, shared := range plan.kernel.recharges {
		var err error
		if rechs[s], _, err = chunkRecharge(cfg, shared); err != nil {
			return nil, err
		}
	}
	return newFleetRun(cfg, plan.kernel, rechs, plan.quant)
}

// runBatchFallback aggregates cfg.Batch replications through the per-run
// engines when the batch engine is ineligible or a per-run engine is
// forced: replication r reruns the configuration at Seed + r with Batch
// cleared, preserving the batch engine's seed pairing so results stay
// comparable across engines. Replications run sequentially — the per-run
// engines parallelize internally where profitable, and the tracer is a
// single-stream consumer. Each inner run publishes its own observability
// totals; the aggregate does not publish again. The aggregate's stats
// probe observes at replication granularity, exactly like runBatch.
func runBatchFallback(cfg Config) (*Result, error) {
	ex := cfg.Span.Child("exec.batch_fallback")
	defer ex.End()
	ex.Count("replications", int64(cfg.Batch))
	agg := &Result{Slots: cfg.Slots}
	probe := newStatsProbe(&cfg)
	sub := cfg
	sub.Span = ex // replication 0's compile/exec spans nest under this phase
	for r := 0; r < cfg.Batch; r++ {
		rr, err := runReplicas(sub, agg, r, 1, false)
		if err != nil {
			return nil, fmt.Errorf("sim: batch replication %d: %w", r, err)
		}
		if probe != nil {
			probe.ObserveReplica(rr.Events, rr.Captures)
		}
	}
	probe.finish(agg)
	return agg, nil
}

// runReplicas runs replications [lo, lo+size) of cfg as one Run at seeds
// Seed+lo onward (size 1 is a plain single run) and folds its Result
// into agg: summed counts, appended sensor blocks, the pooled QoM, and
// Metrics merged under the batch convention (Metrics.mergeReplica). Only
// the first block keeps the single-stream consumers — the span tree and
// the tracer; B sequential identical span trees would bloat the export.
// The inner run gets its own stats probe iff stats, and never a
// streaming sink: its per-event stream describes one block, not the
// whole aggregate.
func runReplicas(cfg Config, agg *Result, lo, size int, stats bool) (*Result, error) {
	sub := cfg
	sub.Seed = cfg.Seed + uint64(lo)
	sub.Batch = size
	sub.Stats = stats
	sub.StatsSink = nil
	if lo > 0 {
		sub.Span = nil
		sub.Tracer = nil
	}
	rr, err := Run(sub)
	if err != nil {
		return nil, err
	}
	agg.Events += rr.Events
	agg.Captures += rr.Captures
	agg.Sensors = append(agg.Sensors, rr.Sensors...)
	if agg.Events > 0 {
		agg.QoM = float64(agg.Captures) / float64(agg.Events)
	}
	if lo == 0 {
		agg.Engine = rr.Engine
		agg.Metrics = rr.Metrics
	} else if agg.Metrics != nil {
		agg.Metrics.mergeReplica(rr.Metrics)
	}
	return rr, nil
}
