package sim

import (
	"fmt"

	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/obs"
	"eventcap/internal/parallel"
	"eventcap/internal/trace"
)

// Config.Batch is a replication count over whichever engine compile
// picks: replication r runs at seed Seed + r through the kernel's loop
// (fleetRun.run) when the configuration compiles and through the
// reference engine (runReference) when it does not, so it reproduces
// the run this Config would produce at Seed + r byte for byte, with
// Metrics on or off. Replications run in chunks across the worker pool.
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

// batch is a Run's replications in flight: the Result their sensor
// blocks fill, the run observer that takes their Metrics and, in
// replication order, their event counts, and those counts.
type batch struct {
	plan  *kernelPlan // nil: replications run on the reference engine
	quant *dist.QuantileTable
	code  uint8 // the trace records' engine
	ex    *obs.Span
	res   *Result
	o     observer
	// counts holds each replication's events and captures.
	counts [][2]int64
}

// newBatch prepares reps replications of cfg on plan (nil for the
// reference engine) under an "exec.batch" span; the caller ends b.ex.
func newBatch(cfg *Config, plan *kernelPlan, quant *dist.QuantileTable, reps int) batch {
	engine, code := EngineReference, trace.EngineReference
	if plan != nil {
		engine, code = EngineKernel, trace.EngineKernel
	}
	return batch{
		plan:   plan,
		quant:  quant,
		code:   code,
		ex:     cfg.Span.Child("exec.batch"),
		res:    &Result{Slots: cfg.Slots, Sensors: make([]SensorStats, reps*cfg.N), Engine: engine},
		o:      newObserver(cfg, code),
		counts: make([][2]int64, reps),
	}
}

// runBatch runs and aggregates the cfg.Batch replications of cfg.
func runBatch(cfg Config, plan *kernelPlan, quant *dist.QuantileTable) (*Result, error) {
	b := newBatch(&cfg, plan, quant, cfg.Batch)
	defer b.ex.End()
	if err := b.run(&cfg, 0, cfg.Batch); err != nil {
		return nil, err
	}
	return b.finish(&cfg, cfg.Batch), nil
}

// run executes replications [lo, hi): they are sharded into chunks (see
// maxBatchChunk) mapped across the worker pool, and a compiled chunk
// owns one fleetRun whose state is reset per replication. After the
// join the chunks' Metrics merge into the run observer's, and the
// replications' counts add to the Result and feed the stats probe in
// replication order.
func (b *batch) run(cfg *Config, lo, hi int) error {
	plan, quant, code, ex := b.plan, b.quant, b.code, b.ex
	sensors, counts := b.res.Sensors, b.counts
	n := cfg.N
	workers := parallel.Workers(cfg.Workers)
	chunk := min((hi-lo+workers-1)/workers, maxBatchChunk)
	numChunks := (hi - lo + chunk - 1) / chunk
	ex.Count("replications", int64(hi-lo))
	ex.Count("chunks", int64(numChunks))
	ex.Count("slots", cfg.Slots*int64(hi-lo)*int64(n))

	parts, err := parallel.Map(workers, numChunks, func(ci int) (*Metrics, error) {
		csp := ex.Fork("chunk")
		defer csp.End()
		var w *fleetRun
		if plan != nil {
			var err error
			if w, err = newBatchFleetRun(cfg, plan, quant); err != nil {
				return nil, err
			}
		}
		co := newPart(cfg, code)
		co.sampling = co.m != nil
		first := lo + ci*chunk
		last := min(first+chunk, hi)
		csp.Count("replications", int64(last-first))
		for r := first; r < last; r++ {
			if r > 0 {
				co.only0()
			}
			seed, block := cfg.Seed+uint64(r), sensors[r*n:(r+1)*n]
			if w != nil {
				counts[r][0], counts[r][1] = w.run(cfg, seed, block, &co)
				continue
			}
			var err error
			if counts[r][0], counts[r][1], err = runReference(cfg, seed, block, &co); err != nil {
				return nil, fmt.Errorf("sim: batch replication %d: %w", r, err)
			}
		}
		return co.m, nil
	})
	if err != nil {
		return err
	}

	agg := ex.Child("aggregate")
	if b.o.m != nil {
		for _, m := range parts {
			b.o.m.Merge(m)
		}
	}
	for _, c := range counts[lo:hi] {
		b.res.Events += c[0]
		b.res.Captures += c[1]
		if b.o.sp != nil {
			b.o.sp.ObserveReplica(c[0], c[1])
		}
	}
	agg.End()
	return nil
}

// finish closes the batch after its first reps replications and
// returns the Result.
func (b *batch) finish(cfg *Config, reps int) *Result {
	b.res.Sensors = b.res.Sensors[:reps*cfg.N]
	b.o.finish(b.res)
	return b.res
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
