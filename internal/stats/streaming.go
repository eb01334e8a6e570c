package stats

// Streaming (O(1)-memory) estimators behind the simulation's stats
// probe (DESIGN.md §16): Welford mean/variance, batch means with
// growing batch size for autocorrelated per-slot series, MSER warmup
// truncation, and the pooling of per-run reports into an experiment's
// estimate.
//
// Determinism matters more than generality here: the probe's reports
// land in run manifests that `cmd/tracetool stats` re-derives from a
// trace alone, so every accumulator below is written so that feeding
// the same value sequence reproduces bit-identical state. In
// particular BatchMeans.AddN is exact (not just close) for the 0/1
// QoM indicator stream, because batch lengths are powers of two and
// indicator sums are small integers — both exactly representable.

import (
	"math"
	"sort"
)

// DefaultCILevel is the confidence level used for every streaming CI.
// Fixed rather than configurable: one level keeps manifests and
// tracetool mutually comparable.
const DefaultCILevel = 0.95

// Report methods: how the CI in a Report was obtained.
const (
	// MethodBatchMeans: one run's per-event indicator stream, batched
	// into power-of-two batches whose means feed the CI.
	MethodBatchMeans = "batch-means"
	// MethodReplication: independent replications (a batched run),
	// one QoM sample per replication.
	MethodReplication = "replication"
	// MethodPooled: several runs' reports pooled (an experiment series).
	MethodPooled = "pooled"
)

// Welford is the standard online mean/variance accumulator
// (numerically stable single-pass algorithm). The zero value is ready
// to use.
type Welford struct {
	N    int64
	Mean float64
	M2   float64
}

// Add folds one observation in.
func (w *Welford) Add(x float64) {
	w.N++
	d := x - w.Mean
	w.Mean += d / float64(w.N)
	w.M2 += d * (x - w.Mean)
}

// Variance returns the sample variance (n−1 denominator), 0 for fewer
// than two observations.
func (w *Welford) Variance() float64 {
	if w.N < 2 {
		return 0
	}
	return w.M2 / float64(w.N-1)
}

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.N < 1 {
		return 0
	}
	return math.Sqrt(w.Variance() / float64(w.N))
}

// batchMeansMaxBatches bounds BatchMeans memory: when the 64 slots
// fill, adjacent batches pair-merge and the batch length doubles.
// Power-of-two batch lengths keep every batch mean an exact dyadic
// rational for 0/1 indicator streams, which is what lets
// cmd/tracetool reproduce a probe report bit-for-bit from a trace.
const batchMeansMaxBatches = 64

// mserMinBatches is the minimum completed-batch count before MSER
// truncation is attempted; below it the estimate is too noisy to
// justify discarding data.
const mserMinBatches = 8

// BatchMeans accumulates a (possibly autocorrelated) series into
// growing batches for CI estimation: the method of batch means with
// power-of-two batch-size doubling. The zero value is ready to use
// (initial batch length 1).
type BatchMeans struct {
	batchLen   int64
	means      [batchMeansMaxBatches]float64
	nb         int
	curSum     float64
	curCount   int64
	totalSum   float64
	totalCount int64
}

// Add folds one observation in.
func (b *BatchMeans) Add(x float64) {
	if b.batchLen == 0 {
		b.batchLen = 1
	}
	b.totalSum += x
	b.totalCount++
	b.curSum += x
	b.curCount++
	if b.curCount == b.batchLen {
		b.closeBatch()
	}
}

// AddN folds n identical observations in, walking batch boundaries so
// the resulting state matches n Add(x) calls. Exact (bit-identical to
// the loop) whenever x·k is exactly representable for k up to the
// batch length — always true for the 0/1 indicator streams this
// package feeds it.
func (b *BatchMeans) AddN(x float64, n int64) {
	if n <= 0 {
		return
	}
	if b.batchLen == 0 {
		b.batchLen = 1
	}
	b.totalSum += x * float64(n)
	b.totalCount += n
	for n > 0 {
		take := b.batchLen - b.curCount
		if take > n {
			take = n
		}
		b.curSum += x * float64(take)
		b.curCount += take
		n -= take
		if b.curCount == b.batchLen {
			b.closeBatch()
		}
	}
}

func (b *BatchMeans) closeBatch() {
	b.means[b.nb] = b.curSum / float64(b.batchLen)
	b.nb++
	b.curSum = 0
	b.curCount = 0
	if b.nb == batchMeansMaxBatches {
		for i := 0; i < batchMeansMaxBatches/2; i++ {
			b.means[i] = (b.means[2*i] + b.means[2*i+1]) / 2
		}
		b.nb = batchMeansMaxBatches / 2
		b.batchLen *= 2
	}
}

// Count returns the total number of observations folded in.
func (b *BatchMeans) Count() int64 { return b.totalCount }

// Sum returns the exact running sum of all observations.
func (b *BatchMeans) Sum() float64 { return b.totalSum }

// Mean returns the grand mean over every observation (not just the
// completed batches).
func (b *BatchMeans) Mean() float64 {
	if b.totalCount == 0 {
		return 0
	}
	return b.totalSum / float64(b.totalCount)
}

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int { return b.nb }

// BatchLen returns the current batch length.
func (b *BatchMeans) BatchLen() int64 {
	if b.batchLen == 0 {
		return 1
	}
	return b.batchLen
}

// CI computes a confidence interval from the completed batch means,
// after MSER warmup truncation (attempted once mserMinBatches batches
// exist). It returns the retained-batch sample mean and variance, the
// CI half-width, the retained/truncated batch counts, and ok=false
// when fewer than two batches remain (no CI possible yet).
func (b *BatchMeans) CI(level float64) (sampleMean, variance, halfWidth float64, retained, truncated int, ok bool) {
	d := 0
	if b.nb >= mserMinBatches {
		d = mserTruncation(b.means[:b.nb])
	}
	retained = b.nb - d
	truncated = d
	if retained < 2 {
		return 0, 0, 0, retained, truncated, false
	}
	var w Welford
	for _, m := range b.means[d:b.nb] {
		w.Add(m)
	}
	z := NormalQuantile(0.5 + level/2)
	return w.Mean, w.Variance(), z * w.StdErr(), retained, truncated, true
}

// mserTruncation returns the warmup truncation point d (in batches)
// for the given batch-mean series (at most batchMeansMaxBatches of
// them): the d ∈ [0, n/2] minimizing the MSER statistic SSE(d)/(n−d)²,
// i.e. the squared standard error of the retained mean. Computed with
// suffix sums in O(n).
func mserTruncation(means []float64) int {
	n := len(means)
	if n < 2 {
		return 0
	}
	// Suffix sums: s[d] = Σ means[d:], s2[d] = Σ means[d:]². BatchMeans
	// holds at most batchMeansMaxBatches means, so fixed arrays keep an
	// end-of-run report allocation-free.
	var s, s2 [batchMeansMaxBatches + 1]float64
	for d := n - 1; d >= 0; d-- {
		s[d] = s[d+1] + means[d]
		s2[d] = s2[d+1] + means[d]*means[d]
	}
	best, bestD := math.Inf(1), 0
	for d := 0; d <= n/2; d++ {
		m := float64(n - d)
		sse := s2[d] - s[d]*s[d]/m
		if sse < 0 {
			sse = 0 // numeric guard: SSE is non-negative by construction
		}
		if stat := sse / (m * m); stat < best {
			best = stat
			bestD = d
		}
	}
	return bestD
}

// Report is the streaming-statistics summary attached to results,
// manifests (schema v4), the run journal, and tracetool output. Events
// and Captures are the exact totals behind Mean = Captures/Events; the
// CI fields describe the uncertainty estimate named by Method.
type Report struct {
	// Method is how the CI was obtained: MethodBatchMeans,
	// MethodReplication, or MethodPooled.
	Method string `json:"method"`
	// Events and Captures are the exact event totals; Mean is
	// Captures/Events (the QoM point estimate).
	Events   int64   `json:"events"`
	Captures int64   `json:"captures"`
	Mean     float64 `json:"mean"`

	// Count is the number of CI samples behind the interval: retained
	// batches (batch-means), replications (replication), or runs
	// (pooled). SampleMean/Variance describe those samples — for the
	// replication method SampleMean (the mean of per-replication QoMs)
	// differs from the pooled Mean in general.
	Count      int64   `json:"count,omitempty"`
	SampleMean float64 `json:"sample_mean,omitempty"`
	Variance   float64 `json:"variance,omitempty"`

	// Level is the confidence level (set only when a CI was computed);
	// HalfWidth the CI half-width around Mean, RelHalfWidth the ratio
	// HalfWidth/Mean.
	Level        float64 `json:"level,omitempty"`
	HalfWidth    float64 `json:"half_width,omitempty"`
	RelHalfWidth float64 `json:"rel_half_width,omitempty"`

	// Batch-means bookkeeping: completed batches, current batch length,
	// and the MSER warmup truncation (batches and observations dropped
	// from the CI; the point estimate always uses every observation).
	Batches          int   `json:"batches,omitempty"`
	BatchLen         int64 `json:"batch_len,omitempty"`
	TruncatedBatches int   `json:"truncated_batches,omitempty"`
	TruncatedCount   int64 `json:"truncated_count,omitempty"`

	// Of names the underlying per-run method for pooled reports:
	// "batch-means", "replication", or "mixed".
	Of string `json:"of,omitempty"`
}

// QoMReport builds the batch-means Report for a 0/1 QoM indicator
// stream accumulated in b. Both the sim probe and tracetool's replay
// go through this one constructor, which is what makes their reports
// comparable field by field.
func QoMReport(b *BatchMeans, level float64) Report {
	r := Report{
		Method:   MethodBatchMeans,
		Events:   b.Count(),
		Captures: int64(math.Round(b.Sum())), // indicator sums are exact integers
		Mean:     b.Mean(),
		Batches:  b.Batches(),
		BatchLen: b.BatchLen(),
	}
	sm, v, hw, retained, truncated, ok := b.CI(level)
	if ok {
		r.Count = int64(retained)
		r.SampleMean = sm
		r.Variance = v
		r.Level = level
		r.HalfWidth = hw
		r.TruncatedBatches = truncated
		r.TruncatedCount = int64(truncated) * b.BatchLen()
		if r.Mean > 0 {
			r.RelHalfWidth = hw / r.Mean
		}
	}
	return r
}

// ReplicationReport builds the Report for independent replications:
// one QoM sample per replication in w, exact event totals alongside.
// Mean is the pooled Captures/Events; the CI is centered on it with
// the spread of the per-replication samples.
func ReplicationReport(w Welford, events, captures int64, level float64) Report {
	r := Report{
		Method:   MethodReplication,
		Events:   events,
		Captures: captures,
		Count:    w.N,
	}
	if events > 0 {
		r.Mean = float64(captures) / float64(events)
	}
	r.SampleMean = w.Mean
	r.Variance = w.Variance()
	if w.N >= 2 {
		z := NormalQuantile(0.5 + level/2)
		r.Level = level
		r.HalfWidth = z * w.StdErr()
		if r.Mean > 0 {
			r.RelHalfWidth = r.HalfWidth / r.Mean
		}
	}
	return r
}

// Pool combines per-run Reports into one pooled estimate for an
// experiment series: exact pooled mean Σcaptures/Σevents, and a
// half-width from the event-weighted per-run half-widths
// (√Σ(eᵢ·hwᵢ)²/Σe — exact for independent runs). The pooled report
// does not depend on the order runs are added in, so concurrent sweep
// points pool to the same bits. The zero value is ready to use.
type Pool struct {
	runs     int64
	events   int64
	captures int64
	wHW2     []float64 // (events_i · hw_i)² per run, summed in sorted order by Report
	of       string
	noCI     bool // some run had no CI → pooled half-width unavailable
}

// Add folds one run's report in.
func (p *Pool) Add(r Report) {
	p.runs++
	p.events += r.Events
	p.captures += r.Captures
	if r.Level == 0 {
		p.noCI = true
	} else {
		w := float64(r.Events) * r.HalfWidth
		p.wHW2 = append(p.wHW2, w*w)
	}
	method := r.Method
	if r.Method == MethodPooled {
		method = r.Of
	}
	switch {
	case p.of == "":
		p.of = method
	case p.of != method:
		p.of = "mixed"
	}
}

// Runs returns the number of reports folded in.
func (p *Pool) Runs() int64 { return p.runs }

// Report returns the pooled report (method "pooled"). Level and the
// half-width fields are set only when every folded run carried a CI.
func (p *Pool) Report(level float64) Report {
	r := Report{
		Method:   MethodPooled,
		Events:   p.events,
		Captures: p.captures,
		Count:    p.runs,
		Of:       p.of,
	}
	if p.events > 0 {
		r.Mean = float64(p.captures) / float64(p.events)
	}
	if p.runs > 0 && !p.noCI && p.events > 0 {
		// A float sum depends on its order; sorting the terms first
		// makes it depend on the set of runs alone.
		terms := append([]float64(nil), p.wHW2...)
		sort.Float64s(terms)
		var sum float64
		for _, t := range terms {
			sum += t
		}
		r.Level = level
		r.HalfWidth = math.Sqrt(sum) / float64(p.events)
		if r.Mean > 0 {
			r.RelHalfWidth = r.HalfWidth / r.Mean
		}
	}
	return r
}
