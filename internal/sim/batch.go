package sim

import (
	"fmt"

	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/parallel"
	"eventcap/internal/trace"
)

// Config.Batch is a replication count over whichever engine compile
// picks: replication r runs at seed Seed + r through the kernel's loop
// (fleetRun.run) when the configuration compiles and through the
// reference engine (runReference) when it does not, so it reproduces
// the run this Config would produce at Seed + r byte for byte, although
// only replication 0 samples battery occupancy (see observer).
// Replications run in chunks across the worker pool.
// A compiled batch shares everything a replication does not own: the
// activation table with its zero runs, the event distribution's
// quantile table, and the Bernoulli recharge's binomial tables are
// built once and read by every replication; per-replication state (RNG
// sources, batteries, a stateful recharge's phase) lives in one
// fleetRun per chunk, reset in place, so the steady-state loop
// allocates nothing per replication. The chunk sharding and worker
// count never touch the streams, so results are byte-identical across
// every Workers setting.

// maxBatchChunk caps the replications per chunk. Chunks are the unit of
// worker parallelism and of state reuse: a batch splits its
// replications evenly across the resolved workers (⌈B/workers⌉
// replications per chunk, so every worker gets a share of even a small
// batch), and the cap keeps a 10⁵-replication batch in enough chunks to
// balance load while still amortizing per-chunk state (battery,
// recharge instance, RNG values) across many replications.
const maxBatchChunk = 1024

// resettable matches per-run state that can be restored in place
// (energy.Periodic's phase). A fast-forwardable recharge process with
// per-run state must implement it: a compiled batch shares the
// processes without it across chunks.
type resettable interface{ Reset() }

// runBatch runs the cfg.Batch replications of cfg on plan (nil for the
// reference engine) under an "exec.batch" span: they are sharded into
// chunks (see maxBatchChunk) mapped across the worker pool, and a
// compiled chunk owns one fleetRun whose state is reset per
// replication. After the join the chunks' Metrics merge into the run
// observer's, and the replications' counts add to the Result and feed
// the stats probe in replication order.
func runBatch(cfg Config, plan *kernelPlan, quant *dist.QuantileTable) (*Result, error) {
	engine, code := EngineReference, trace.EngineReference
	if plan != nil {
		engine, code = EngineKernel, trace.EngineKernel
	}
	ex := cfg.Span.Child("exec.batch")
	defer ex.End()
	reps, n := cfg.Batch, cfg.N
	res := &Result{Slots: cfg.Slots, Sensors: make([]SensorStats, reps*n), Engine: engine}
	o := newObserver(&cfg, code)
	// counts holds each replication's events and captures.
	counts := make([][2]int64, reps)
	workers := parallel.Workers(cfg.Workers)
	chunk := min((reps+workers-1)/workers, maxBatchChunk)
	numChunks := (reps + chunk - 1) / chunk
	ex.Count("replications", int64(reps))
	ex.Count("chunks", int64(numChunks))
	ex.Count("slots", cfg.Slots*int64(reps)*int64(n))

	parts, err := parallel.Map(workers, numChunks, func(ci int) (*Metrics, error) {
		csp := ex.Fork("chunk")
		defer csp.End()
		var w *fleetRun
		if plan != nil {
			var err error
			if w, err = newBatchFleetRun(&cfg, plan, quant); err != nil {
				return nil, err
			}
		}
		co := newPart(&cfg, code)
		first := ci * chunk
		last := min(first+chunk, reps)
		csp.Count("replications", int64(last-first))
		for r := first; r < last; r++ {
			if r > 0 {
				co.only0()
			}
			seed, block := cfg.Seed+uint64(r), res.Sensors[r*n:(r+1)*n]
			if w != nil {
				counts[r][0], counts[r][1] = w.run(&cfg, seed, block, &co)
				continue
			}
			var err error
			if counts[r][0], counts[r][1], err = runReference(&cfg, seed, block, &co); err != nil {
				return nil, fmt.Errorf("sim: batch replication %d: %w", r, err)
			}
		}
		return co.m, nil
	})
	if err != nil {
		return nil, err
	}

	agg := ex.Child("aggregate")
	for _, m := range parts {
		o.m.Merge(m)
	}
	for _, c := range counts {
		res.Events += c[0]
		res.Captures += c[1]
		o.sp.observeReplica(c[0], c[1])
	}
	agg.End()
	o.finish(res)
	return res, nil
}

// chunkRecharge hands a chunk its own instance of the plan's recharge
// process: the shared instance when stateless, a fresh prepared instance
// (reset before every replication) otherwise — chunks run concurrently,
// so a stateful process can never be shared.
func chunkRecharge(cfg *Config, shared energy.FastForwarder) (energy.FastForwarder, error) {
	if _, stateful := shared.(resettable); !stateful {
		return shared, nil
	}
	fresh, ok := cfg.NewRecharge().(energy.FastForwarder)
	if !ok {
		return nil, fmt.Errorf("sim: recharge factory stopped producing fast-forwardable processes")
	}
	if prep, ok := fresh.(energy.FastForwardPreparer); ok {
		prep.PrepareFastForward(prepareRunLength)
	}
	return fresh, nil
}

// newBatchFleetRun builds one chunk's fleetRun over the chunk's own
// recharge instances and the batch's shared quantile table.
func newBatchFleetRun(cfg *Config, plan *kernelPlan, quant *dist.QuantileTable) (*fleetRun, error) {
	rechs := make([]energy.FastForwarder, plan.n)
	for s, shared := range plan.recharges {
		var err error
		if rechs[s], err = chunkRecharge(cfg, shared); err != nil {
			return nil, err
		}
	}
	return newFleetRun(cfg, plan, rechs, quant)
}
