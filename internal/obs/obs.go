// Package obs is the observability layer of the simulation stack:
// allocation-free counters, gauges and fixed-bucket histograms that the
// engines, the policy cache and the worker pool record into, exported as
// one expvar map ("eventcap" under /debug/vars).
//
// The package depends only on the standard library (plus the equally
// dependency-free internal/stats report types embedded in run
// manifests), and nothing in it ever draws from a random stream — recording metrics cannot change any
// simulation output (the RNG-neutrality contract of DESIGN.md §9).
// Every metric type is a fixed-size struct updated with atomic
// operations, so the hot paths that record into them allocate nothing.
//
// Metrics are process-cumulative and monotone (gauges excepted); readers
// that want per-phase numbers — like the run manifests cmd/experiments
// writes — take a Snapshot before and after the phase and Diff the two.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"expvar"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// BatteryBins is the number of fixed battery-occupancy bins: bin i
// counts observed slots with level/capacity in [i/BatteryBins,
// (i+1)/BatteryBins), the top bin closed at full.
const BatteryBins = 10

// registry maps metric names to value loaders. All registration happens
// in package init (the metric vars below), but the mutex keeps Snapshot
// safe against any future dynamic registration.
var (
	regMu sync.Mutex
	reg   = make(map[string]func() float64)

	// Family metadata for the Prometheus exposition (prom.go): flat
	// expvar names don't say whether a metric is a counter, a gauge, a
	// binned vector or a latency histogram, so the constructors record
	// it here. Guarded by regMu like reg.
	promCounters []string
	promGauges   []string
	promVecs     []promVecInfo
	promHists    []string
)

// promVecInfo describes one CounterVec family: its base name and bin
// count (bins are registered as "<name>.00" … "<name>.NN").
type promVecInfo struct {
	name string
	n    int
}

func register(name string, load func() float64) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	reg[name] = load
}

func recordFamily(list *[]string, name string) {
	regMu.Lock()
	defer regMu.Unlock()
	*list = append(*list, name)
}

func init() {
	// One expvar map for the whole stack; integral values render without
	// a decimal point, so /debug/vars stays readable.
	expvar.Publish("eventcap", expvar.Func(func() any {
		snap := Snapshot()
		out := make(map[string]any, len(snap))
		for k, v := range snap {
			if v == float64(int64(v)) { // floateq:ok exact integrality test for display only
				out[k] = int64(v)
			} else {
				out[k] = v
			}
		}
		return out
	}))
}

// Snapshot returns the current value of every registered metric.
// Counter and gauge values are integral; only float accumulators carry
// fractions. Counter magnitudes stay far below 2^53, so float64 holds
// them exactly and Diff arithmetic is exact.
func Snapshot() map[string]float64 {
	regMu.Lock()
	defer regMu.Unlock()
	out := make(map[string]float64, len(reg))
	for name, load := range reg {
		out[name] = load()
	}
	return out
}

// Diff returns after-minus-before for every key in after. Keys missing
// from before count from zero, matching metrics registered mid-phase.
func Diff(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// NewCounter registers and returns a counter.
func NewCounter(name string) *Counter {
	c := &Counter{}
	register(name, func() float64 { return float64(c.v.Load()) })
	recordFamily(&promCounters, name)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous level that can move both ways; it also
// tracks its high-water mark (registered as "<name>.max").
type Gauge struct{ v, max atomic.Int64 }

// NewGauge registers and returns a gauge.
func NewGauge(name string) *Gauge {
	g := &Gauge{}
	register(name, func() float64 { return float64(g.v.Load()) })
	register(name+".max", func() float64 { return float64(g.max.Load()) })
	recordFamily(&promGauges, name)
	recordFamily(&promGauges, name+".max")
	return g
}

// Add moves the gauge by n (negative to decrease) and updates the
// high-water mark.
func (g *Gauge) Add(n int64) {
	nv := g.v.Add(n)
	for {
		m := g.max.Load()
		if nv <= m || g.max.CompareAndSwap(m, nv) {
			return
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// FloatCounter is a monotone float accumulator (battery-fraction sums).
type FloatCounter struct{ bits atomic.Uint64 }

// NewFloatCounter registers and returns a float accumulator.
func NewFloatCounter(name string) *FloatCounter {
	f := &FloatCounter{}
	register(name, f.Load)
	recordFamily(&promCounters, name)
	return f
}

// Add accumulates v with a compare-and-swap loop.
func (f *FloatCounter) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the accumulated sum.
func (f *FloatCounter) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// FloatGauge is an instantaneous float level (the stats.* estimates:
// last-published QoM mean and CI half-widths).
type FloatGauge struct{ bits atomic.Uint64 }

// NewFloatGauge registers and returns a float gauge.
func NewFloatGauge(name string) *FloatGauge {
	g := &FloatGauge{}
	register(name, g.Value)
	recordFamily(&promGauges, name)
	return g
}

// Set replaces the gauge's value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// CounterVec is a fixed-length vector of counters (histogram bins),
// registered as "<name>.00" … "<name>.NN".
type CounterVec struct{ bins []Counter }

// NewCounterVec registers and returns an n-bin counter vector.
func NewCounterVec(name string, n int) *CounterVec {
	v := &CounterVec{bins: make([]Counter, n)}
	for i := range v.bins {
		c := &v.bins[i]
		register(fmt.Sprintf("%s.%02d", name, i), func() float64 { return float64(c.Load()) })
	}
	regMu.Lock()
	promVecs = append(promVecs, promVecInfo{name: name, n: n})
	regMu.Unlock()
	return v
}

// Add adds n to bin i (out-of-range bins clamp to the ends).
func (v *CounterVec) Add(i int, n int64) {
	if i < 0 {
		i = 0
	}
	if i >= len(v.bins) {
		i = len(v.bins) - 1
	}
	v.bins[i].Add(n)
}

// Bin returns the count in bin i.
func (v *CounterVec) Bin(i int) int64 { return v.bins[i].Load() }

// durationBuckets are the fixed upper bounds of DurationHist, chosen for
// pool jobs that span simulation runs (milliseconds to minutes).
var durationBuckets = []struct {
	limit time.Duration
	label string
}{
	{time.Millisecond, "le_1ms"},
	{10 * time.Millisecond, "le_10ms"},
	{100 * time.Millisecond, "le_100ms"},
	{time.Second, "le_1s"},
	{10 * time.Second, "le_10s"},
	{100 * time.Second, "le_100s"},
}

// DurationHist is a fixed-bucket latency histogram with a sum and count,
// registered as "<name>.le_1ms" … "<name>.inf", "<name>.sum_ns" and
// "<name>.count".
type DurationHist struct {
	buckets [7]Counter // durationBuckets plus the open top bucket
	sumNs   Counter
	count   Counter
}

// NewDurationHist registers and returns a latency histogram.
func NewDurationHist(name string) *DurationHist {
	h := &DurationHist{}
	recordFamily(&promHists, name)
	for i := range durationBuckets {
		c := &h.buckets[i]
		register(name+"."+durationBuckets[i].label, func() float64 { return float64(c.Load()) })
	}
	register(name+".inf", func() float64 { return float64(h.buckets[len(durationBuckets)].Load()) })
	register(name+".sum_ns", func() float64 { return float64(h.sumNs.Load()) })
	register(name+".count", func() float64 { return float64(h.count.Load()) })
	return h
}

// Observe records one duration.
func (h *DurationHist) Observe(d time.Duration) {
	i := 0
	for ; i < len(durationBuckets); i++ {
		if d <= durationBuckets[i].limit {
			break
		}
	}
	h.buckets[i].Inc()
	h.sumNs.Add(int64(d))
	h.count.Inc()
}

// Count returns how many durations were observed.
func (h *DurationHist) Count() int64 { return h.count.Load() }

// MeanNs returns the mean observed duration in nanoseconds (0 before the
// first observation).
func (h *DurationHist) MeanNs() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sumNs.Load()) / float64(n)
}

// The process-wide metric set. Naming convention: subsystem-dotted,
// lower_snake leaves, so prefix filters ("sim.", "pool.", "cache.")
// carve the manifest blocks.
var (
	// Engine selection: how many sim.Run calls executed on each engine.
	SimRunsKernel    = NewCounter("sim.runs.kernel")
	SimRunsReference = NewCounter("sim.runs.reference")
	SimRunsBatch     = NewCounter("sim.runs.batch")

	// Engine-fallback diagnostics: why an EngineAuto dispatch declined a
	// fast engine (compiled kernel or mega-batch) and ran an interpreted
	// path instead, keyed by the structural reason. One increment per
	// declined dispatch decision — a batch decline whose replications then
	// fall back individually counts each decline — so slow-path runs are
	// attributable in production instead of silent. The "sim." prefix
	// carries these into the run-manifest metrics block automatically.
	SimFallbackMode     = NewCounter("sim.engine.fallback.mode")
	SimFallbackFault    = NewCounter("sim.engine.fallback.fault")
	SimFallbackPolicy   = NewCounter("sim.engine.fallback.policy")
	SimFallbackInfo     = NewCounter("sim.engine.fallback.info")
	SimFallbackRecharge = NewCounter("sim.engine.fallback.recharge")
	SimFallbackTracer   = NewCounter("sim.engine.fallback.tracer")
	SimFallbackMismatch = NewCounter("sim.engine.fallback.mismatch")

	// Per-run metric totals, accumulated by sim.Run when metrics
	// collection is enabled (see sim.Metrics for the definitions).
	SimEvents            = NewCounter("sim.events")
	SimCaptures          = NewCounter("sim.captures")
	SimMissAsleep        = NewCounter("sim.miss.asleep")
	SimMissNoEnergy      = NewCounter("sim.miss.noenergy")
	SimWastedActivations = NewCounter("sim.wasted_activations")
	SimOutageSlots       = NewCounter("sim.outage_slots")
	SimObservedSlots     = NewCounter("sim.observed_slots")
	SimBatteryFracSum    = NewFloatCounter("sim.battery.frac_sum")
	SimBatteryHist       = NewCounterVec("sim.battery.bin", BatteryBins)
	SimKernelRuns        = NewCounter("sim.kernel.ff_runs")
	SimKernelSlots       = NewCounter("sim.kernel.ff_slots")

	// Policy-cache effectiveness (internal/core).
	CachePolicyHits   = NewCounter("cache.policy.hits")
	CachePolicyMisses = NewCounter("cache.policy.misses")

	// Worker-pool health (internal/parallel): queue depth is the pending
	// gauge, concurrency is the in-flight gauge, job latency is the
	// histogram.
	PoolJobsEnqueued = NewCounter("pool.jobs.enqueued")
	PoolJobsDone     = NewCounter("pool.jobs.done")
	PoolJobErrors    = NewCounter("pool.jobs.errors")
	PoolPending      = NewGauge("pool.pending")
	PoolInFlight     = NewGauge("pool.inflight")
	PoolLatency      = NewDurationHist("pool.latency")

	// Streaming-statistics surface: the last QoM confidence interval
	// published by a driver's stats collector (internal/sim's StatsProbe
	// feeds these through the CLI sink). Gauges, not counters — each run
	// overwrites the estimate of the one before it.
	StatsReports         = NewCounter("stats.reports")
	StatsQoMMean         = NewFloatGauge("stats.qom.mean")
	StatsQoMHalfWidth    = NewFloatGauge("stats.qom.half_width")
	StatsQoMRelHalfWidth = NewFloatGauge("stats.qom.rel_half_width")
)

// DigestConfig hashes an ordered list of "key=value" strings into the
// stable config digest recorded in run manifests.
func DigestConfig(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
