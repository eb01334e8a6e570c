package sim

import (
	"fmt"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/obs"
	"eventcap/internal/parallel"
	"eventcap/internal/rng"
)

// The mega-batch engine simulates Config.Batch statistically independent
// replications of one compiled single-sensor configuration in a single
// call, sharing everything a replication does not own: the activation
// table with its zero/one runs, the event distribution's quantile table,
// and the Bernoulli recharge's binomial tables are built once and read by
// every replication; per-replication state (RNG sources, the battery, a
// stateful recharge's phase) lives in a fixed set of values reset in
// place, so the steady-state loop allocates nothing per replication.
//
// Determinism contract: replication r's random streams derive solely from
// Config.Seed + r, laid out exactly as the kernel lays out a run at that
// seed (root Reseed(Seed+r, 0x5eed), then event Split(1), decision
// Split(2), recharge Split(100)). Replication r therefore reproduces the
// run this Config would produce at Seed + r: byte-identically when the
// kernel itself would be byte-deterministic on that configuration
// (deterministic recharge, or any recharge with Metrics on, which
// disables the batched awake runs below), and equal in law otherwise —
// the same clause the kernel's sleep fast-forward already carries. The
// chunk sharding and worker count never touch the streams, so results
// are byte-identical across every Workers setting.

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
	table  *core.BatchTable
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
// independent engine's) plus two batch-only conditions: no slot tracer
// (the engine reports aggregates, never slot records), and recharge
// processes whose per-run state — if any — can be reset between
// replications. sp (nilable) is the caller's "compile" span; the
// batch-table build gets its own child under it.
func compileBatch(cfg *Config, sp *obs.Span) (*batchPlan, fallback) {
	if cfg.Tracer != nil {
		return nil, fallback{"tracer", "slot tracing requested"}
	}
	kp, fb := compileKernel(cfg)
	if kp == nil {
		if cfg.independentSensors() {
			return compileBatchIndependent(cfg, sp)
		}
		return nil, fb
	}
	for _, r := range kp.recharges {
		if !batchReusable(r) {
			return nil, fallback{"recharge", fmt.Sprintf("recharge %s carries per-run state without Reset", r.Name())}
		}
	}
	tsp := sp.Child("batch.table")
	plan := &batchPlan{kernel: kp, table: core.CompileBatch(kp.table)}
	if s := dist.AsInverseSampler(cfg.Dist); s != nil {
		plan.quant = dist.NewQuantileTable(s)
	}
	tsp.End()
	return plan, fallback{}
}

// compileBatchIndependent is compileBatch's probe for decoupled
// ModeAll+PartialInfo fleets: every sensor must compile to a per-sensor
// plan, and faults stay on the per-replication fallback (a truncated
// sensor is cheap there and rare enough not to earn a batched loop).
func compileBatchIndependent(cfg *Config, sp *obs.Span) (*batchPlan, fallback) {
	if len(cfg.FailAt) > 0 {
		return nil, fallback{"fault", "fault injection requested"}
	}
	plans, fb := compileIndependent(cfg)
	if plans == nil {
		return nil, fb
	}
	for s := range plans {
		if !batchReusable(plans[s].recharge) {
			return nil, fallback{"recharge", fmt.Sprintf("recharge %s carries per-run state without Reset", plans[s].recharge.Name())}
		}
	}
	tsp := sp.Child("batch.table")
	plan := &batchPlan{indep: plans}
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
	// order after the join — the workers' awake-run batching and draw
	// discipline stay untouched.
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
		w, err := newBatchRunner(&cfg, plan)
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
			ev, cp := w.simulate(&cfg, plan, uint64(r), sensors[r*n:(r+1)*n], &co)
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

// batchRunner is one chunk's replication executor; simulate runs
// replication rep into its rep-major sensors block, observing into the
// chunk's observer, and returns the replication's event and capture
// counts.
type batchRunner interface {
	simulate(cfg *Config, plan *batchPlan, rep uint64, sensors []SensorStats, o *observer) (events, captures int64)
}

// newBatchRunner picks the chunk worker for the plan's shape: the
// single-sensor worker (with its awake-run batching), the round-robin
// fleet worker, or the decoupled-fleet worker.
func newBatchRunner(cfg *Config, plan *batchPlan) (batchRunner, error) {
	if plan.indep != nil {
		return newBatchIndepWorker(cfg, plan)
	}
	if plan.kernel.n > 1 {
		return newBatchMultiWorker(cfg, plan)
	}
	return newBatchWorker(cfg, plan)
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

// batchWorker is one chunk's replication state: RNG values reseeded in
// place per replication, one battery reset per replication, and the
// chunk's recharge process (the plan's shared instance when stateless, a
// fresh per-chunk instance reset per replication otherwise).
type batchWorker struct {
	root, eventSrc, decisionSrc, rechargeSrc rng.Source

	battery *energy.Battery
	rech    energy.FastForwarder
	rechRst resettable // non-nil iff the chunk owns a stateful recharge

	bern         *energy.Bernoulli
	isBern       bool
	bernQ, bernC float64
}

func newBatchWorker(cfg *Config, plan *batchPlan) (*batchWorker, error) {
	w := &batchWorker{}
	b, err := energy.NewBattery(cfg.BatteryCap, cfg.InitialBattery)
	if err != nil {
		return nil, err
	}
	w.battery = b
	w.rech, w.rechRst, err = chunkRecharge(cfg, plan.kernel.recharges[0])
	if err != nil {
		return nil, err
	}
	if bern, ok := w.rech.(*energy.Bernoulli); ok {
		w.bern = bern
		w.isBern = true
		w.bernQ, w.bernC = bern.Q(), bern.C()
	}
	return w, nil
}

// simulate runs one replication, returning its event and capture counts.
// The loop is the kernel's (runFleetKernel at N = 1) minus tracing, plus the two batch
// accelerations: quantile-table event sampling (byte-identical to
// Dist.Sample by the InverseSampler contract) and closed-form awake runs
// (equal in law; disabled whenever Metrics are on so instrumented
// replications consume their streams exactly as the kernel would).
func (w *batchWorker) simulate(cfg *Config, plan *batchPlan, rep uint64, sensors []SensorStats, o *observer) (events, captures int64) {
	stats := &sensors[0]
	w.root.Reseed(cfg.Seed+rep, 0x5eed) // seedflow:ok replication-root: rep r must equal the kernel's root at Seed+r
	w.root.SplitInto(&w.eventSrc, 1)
	w.root.SplitInto(&w.decisionSrc, 2)
	w.root.SplitInto(&w.rechargeSrc, 100)
	w.battery.Reset(cfg.InitialBattery)
	if w.rechRst != nil {
		w.rechRst.Reset()
	}

	table := plan.table
	quant := plan.quant
	d := cfg.Dist
	battery := w.battery
	rech := w.rech
	state := plan.kernel.state
	modulus := plan.kernel.modulus
	cost := cfg.Params.ActivationCost()
	delta1, delta2 := cfg.Params.Delta1, cfg.Params.Delta2
	isBern, bernQ, bernC := w.isBern, w.bernQ, w.bernC
	// Awake-run batching draws one recharge count per run instead of one
	// Bernoulli per slot, so it is off whenever metrics are on — an
	// instrumented replication must consume its streams exactly as the
	// kernel at Seed + rep would.
	oneRuns := o.m == nil && isBern
	countdown := o.stride()

	var activations, denied int64

	// The paper assumes an event (and capture) at slot 0.
	lastEvent, lastCapture := int64(0), int64(0)
	var nextEvent int64
	if quant != nil {
		nextEvent = int64(quant.Sample(&w.eventSrc))
	} else {
		nextEvent = int64(d.Sample(&w.eventSrc))
	}

	t := int64(1)
	for t <= cfg.Slots {
		var st int64
		switch state {
		case StateSinceEvent:
			st = t - lastEvent
		case StateSinceCapture:
			st = t - lastCapture
		default:
			st = (t-1)%modulus + 1
		}

		if z := table.ZeroRunFrom(int(st)); z > 0 {
			// Sleep run, exactly as the kernel executes it.
			n := z
			if state == StateSlotPhase {
				if wrap := modulus - st + 1; n > wrap {
					n = wrap
				}
			}
			if left := cfg.Slots - t + 1; n > left {
				n = left
			}
			eventsBefore := events
			if state == StateSinceEvent && nextEvent-t+1 <= n {
				n = nextEvent - t + 1
				rech.FastForward(battery, n, &w.rechargeSrc)
				events++
				lastEvent = nextEvent
				if quant != nil {
					nextEvent += int64(quant.Sample(&w.eventSrc))
				} else {
					nextEvent += int64(d.Sample(&w.eventSrc))
				}
			} else {
				rech.FastForward(battery, n, &w.rechargeSrc)
				end := t + n - 1
				for nextEvent <= end {
					events++
					lastEvent = nextEvent
					if quant != nil {
						nextEvent += int64(quant.Sample(&w.eventSrc))
					} else {
						nextEvent += int64(d.Sample(&w.eventSrc))
					}
				}
			}
			o.sleepRun(n, events-eventsBefore)
			t += n
			continue
		}

		if oneRuns {
			if one := table.OneRunFrom(int(st)); one > 1 {
				// Certain-activation run: Bernoulli(p >= 1) consumes no
				// decision draws, so until the next event the slots are a
				// pure recharge/consume stream the battery can absorb in
				// closed form.
				n := one
				if state == StateSlotPhase {
					if wrap := modulus - st + 1; n > wrap {
						n = wrap
					}
				}
				if gap := nextEvent - t; n > gap {
					// The event slot mutates state (capture, h/f reset),
					// so the run stops just before it.
					n = gap
				}
				if left := cfg.Slots - t + 1; n > left {
					n = left
				}
				if n > 1 && w.awakeRun(n, cost, delta1) {
					activations += n
					t += n
					continue
				}
			}
		}

		// Awake slot: replicate the kernel's slot exactly.
		if isBern {
			if w.rechargeSrc.Bernoulli(bernQ) {
				battery.Recharge(bernC)
			}
		} else {
			battery.Recharge(rech.Next(&w.rechargeSrc))
		}
		event := t == nextEvent
		p := table.At(int(st))
		capturedHere, deniedHere := false, false
		if w.decisionSrc.Bernoulli(p) {
			if !battery.CanConsume(cost) {
				denied++
				deniedHere = true
			} else {
				battery.Consume(delta1)
				activations++
				if event {
					battery.Consume(delta2)
					captures++
					lastCapture = t
					capturedHere = true
				}
			}
		}
		if event {
			events++
			lastEvent = t
			if quant != nil {
				nextEvent = t + int64(quant.Sample(&w.eventSrc))
			} else {
				nextEvent = t + int64(d.Sample(&w.eventSrc))
			}
			o.event(t, capturedHere, deniedHere)
		}
		countdown--
		if countdown == 0 {
			countdown = batterySampleStride
			o.battery(battery.Level())
		}
		t++
	}

	stats.Activations = activations
	stats.Captures = captures
	stats.Denied = denied
	stats.EnergyConsumed = battery.Consumed()
	stats.OverflowLost = battery.OverflowLost()
	stats.FinalBattery = battery.Level()
	return events, captures
}

// awakeRun applies n consecutive certain-activation, no-event slots in
// O(1): one binomial recharge count plus closed-form battery moves. It
// succeeds only when no slot in the stretch could hit the energy gate or
// the capacity clip regardless of how deliveries and consumptions
// interleave — then the final level is order-independent and batching the
// recharges before the consumptions reproduces the per-slot outcome. The
// caller falls back to per-slot execution when a guard fails.
func (w *batchWorker) awakeRun(n int64, cost, delta1 float64) bool {
	lvl := w.battery.Level()
	// Gate worst case: every consumption lands before any delivery, so
	// slot j starts at lvl − j·δ1 and the last must still afford cost.
	if lvl-float64(n-1)*delta1 < cost {
		return false
	}
	// Clip worst case: every delivery lands before any consumption.
	if lvl+float64(n)*w.bernC > w.battery.Capacity() {
		return false
	}
	w.bern.FastForward(w.battery, n, &w.rechargeSrc)
	if !w.battery.ConsumeN(delta1, n) {
		// Off the exactness grid: apply the consumptions one by one (the
		// guards still hold, so none is denied).
		for i := int64(0); i < n; i++ {
			w.battery.Consume(delta1)
		}
	}
	return true
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
