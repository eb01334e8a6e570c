package stats

import (
	"math"
	"testing"

	"eventcap/internal/rng"
)

func TestWelfordMatchesSummarize(t *testing.T) {
	src := rng.New(3, 0)
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = 2 + 3*src.NormFloat64()
		w.Add(xs[i])
	}
	s := Summarize(xs)
	if w.N != int64(s.N) {
		t.Fatalf("N %d, want %d", w.N, s.N)
	}
	if math.Abs(w.Mean-s.Mean) > 1e-12 || math.Abs(w.Variance()-s.Variance) > 1e-9 {
		t.Fatalf("welford mean/var %v/%v, want %v/%v", w.Mean, w.Variance(), s.Mean, s.Variance)
	}
	if math.Abs(w.StdErr()-s.StdErr()) > 1e-12 {
		t.Fatalf("stderr %v, want %v", w.StdErr(), s.StdErr())
	}
}

func TestBatchMeansAddNMatchesLoop(t *testing.T) {
	// The probe feeds AddN for fast-forwarded misses; it must land in a
	// bit-identical state to per-event Add calls, across batch-doubling
	// boundaries.
	var loop, bulk BatchMeans
	src := rng.New(21, 0)
	pending := int64(0)
	flush := func() {
		bulk.AddN(0, pending)
		pending = 0
	}
	for i := 0; i < 5000; i++ {
		if src.Float64() < 0.3 {
			flush()
			loop.Add(1)
			bulk.Add(1)
		} else {
			loop.Add(0)
			pending++
		}
	}
	flush()
	if loop != bulk {
		t.Fatalf("AddN state diverged:\nloop %+v\nbulk %+v", loop, bulk)
	}
}

func TestBatchMeansDoubling(t *testing.T) {
	var b BatchMeans
	if b.BatchLen() != 1 {
		t.Fatalf("zero-value batch length %d", b.BatchLen())
	}
	for i := 0; i < 64; i++ {
		b.Add(float64(i % 2))
	}
	// 64 length-1 batches pair-merged into 32 length-2 batches.
	if b.Batches() != 32 || b.BatchLen() != 2 {
		t.Fatalf("after 64 obs: %d batches of %d", b.Batches(), b.BatchLen())
	}
	if b.Count() != 64 || b.Sum() != 32 {
		t.Fatalf("count/sum %d/%v", b.Count(), b.Sum())
	}
	if b.Mean() != 0.5 {
		t.Fatalf("mean %v", b.Mean())
	}
	// Each time the 64 slots fill, the batch length doubles: 256
	// observations end as 32 complete batches of length 8.
	for i := 0; i < 64*3; i++ {
		b.Add(1)
	}
	if b.BatchLen() != 8 || b.Batches() != 32 || b.Count() != 256 {
		t.Fatalf("after 256 obs: %d batches of %d, count %d", b.Batches(), b.BatchLen(), b.Count())
	}
}

func TestBatchMeansCICoverageAR1(t *testing.T) {
	// Nominal coverage on a synthetic AR(1) series (φ=0.8): the 95%
	// batch-means CI must contain the true mean close to 95% of the
	// time. φ=0.8 gives strong autocorrelation — a naive iid CI would
	// cover far less (the sanity check at the bottom).
	const trials, n = 400, 20000
	const truth = 2.0
	contains, naive := 0, 0
	for k := 0; k < trials; k++ {
		src := rng.New(uint64(1000+k), 0)
		var b BatchMeans
		var iid Welford
		x := 0.0
		for i := 0; i < n; i++ {
			x = 0.8*x + src.NormFloat64()
			v := truth + x
			b.Add(v)
			iid.Add(v)
		}
		r := QoMReport(&b, 0.95)
		if r.Level == 0 {
			t.Fatalf("trial %d: no CI after %d observations", k, n)
		}
		if math.Abs(r.Mean-truth) <= r.HalfWidth {
			contains++
		}
		z := NormalQuantile(0.975)
		if math.Abs(iid.Mean-truth) <= z*iid.StdErr() {
			naive++
		}
	}
	rate := float64(contains) / trials
	if rate < 0.85 || rate > 1.0 {
		t.Fatalf("95%% batch-means CI covered %v of the time", rate)
	}
	if naiveRate := float64(naive) / trials; naiveRate > rate-0.2 {
		t.Fatalf("naive iid CI coverage %v not clearly worse than batch means %v — series not autocorrelated enough to test anything", naiveRate, rate)
	}
}

func TestMSERTruncationDetectsWarmup(t *testing.T) {
	// A decaying transient on the first quarter of the batches: MSER
	// must truncate a nontrivial prefix.
	means := make([]float64, 40)
	for i := range means {
		means[i] = 1.0
		if i < 10 {
			means[i] += 5 * math.Exp(-float64(i))
		}
		if i%2 == 0 {
			means[i] += 0.01
		} else {
			means[i] -= 0.01
		}
	}
	d := mserTruncation(means)
	if d < 1 || d > 10 {
		t.Fatalf("truncation %d, want within the transient (1..10)", d)
	}
	// A flat series needs no truncation.
	flat := make([]float64, 40)
	for i := range flat {
		flat[i] = 3 + 0.001*float64(i%3)
	}
	if d := mserTruncation(flat); d > 2 {
		t.Fatalf("flat series truncated at %d", d)
	}
	if mserTruncation(nil) != 0 || mserTruncation([]float64{1}) != 0 {
		t.Fatal("degenerate inputs must not truncate")
	}
}

func TestQoMReportFields(t *testing.T) {
	var b BatchMeans
	// 512 events, every 4th captured: QoM exactly 0.25.
	for i := 0; i < 512; i++ {
		if i%4 == 0 {
			b.Add(1)
		} else {
			b.Add(0)
		}
	}
	r := QoMReport(&b, 0.95)
	if r.Method != MethodBatchMeans || r.Events != 512 || r.Captures != 128 {
		t.Fatalf("report %+v", r)
	}
	if r.Mean != 0.25 {
		t.Fatalf("mean %v, want exactly 0.25", r.Mean)
	}
	if r.Level != 0.95 || r.Count < 2 || r.Batches == 0 || r.BatchLen == 0 {
		t.Fatalf("CI bookkeeping %+v", r)
	}
	if r.TruncatedCount != int64(r.TruncatedBatches)*r.BatchLen {
		t.Fatalf("truncation accounting %+v", r)
	}
}

func TestReplicationReport(t *testing.T) {
	var w Welford
	qoms := []float64{0.2, 0.25, 0.3, 0.35}
	for _, q := range qoms {
		w.Add(q)
	}
	r := ReplicationReport(w, 4000, 1100, 0.95)
	if r.Method != MethodReplication || r.Count != 4 {
		t.Fatalf("report %+v", r)
	}
	if r.Mean != 1100.0/4000.0 {
		t.Fatalf("pooled mean %v", r.Mean)
	}
	if math.Abs(r.SampleMean-0.275) > 1e-12 {
		t.Fatalf("sample mean %v", r.SampleMean)
	}
	if r.Level != 0.95 || r.HalfWidth <= 0 || r.RelHalfWidth <= 0 {
		t.Fatalf("CI %+v", r)
	}
	if math.Abs(r.Variance-w.Variance()) > 1e-15 {
		t.Fatalf("variance %v, want %v", r.Variance, w.Variance())
	}
	// A single replication yields no CI.
	var one Welford
	one.Add(0.5)
	if r := ReplicationReport(one, 10, 5, 0.95); r.Level != 0 || r.HalfWidth != 0 {
		t.Fatalf("single-rep CI %+v", r)
	}
}

func TestPool(t *testing.T) {
	var p Pool
	a := Report{Method: MethodBatchMeans, Events: 1000, Captures: 250, Mean: 0.25, Level: 0.95, HalfWidth: 0.02}
	b := Report{Method: MethodBatchMeans, Events: 3000, Captures: 900, Mean: 0.3, Level: 0.95, HalfWidth: 0.01}
	p.Add(a)
	p.Add(b)
	r := p.Report(0.95)
	if r.Method != MethodPooled || r.Of != MethodBatchMeans || p.Runs() != 2 {
		t.Fatalf("pooled %+v", r)
	}
	if r.Events != 4000 || r.Captures != 1150 || r.Mean != 1150.0/4000.0 {
		t.Fatalf("pooled totals %+v", r)
	}
	wantHW := math.Sqrt(math.Pow(1000*0.02, 2)+math.Pow(3000*0.01, 2)) / 4000
	if math.Abs(r.HalfWidth-wantHW) > 1e-15 {
		t.Fatalf("pooled half-width %v, want %v", r.HalfWidth, wantHW)
	}
	// A CI-less run poisons the pooled half-width but not the mean.
	p.Add(Report{Method: MethodReplication, Events: 1000, Captures: 100})
	r = p.Report(0.95)
	if r.Level != 0 || r.HalfWidth != 0 {
		t.Fatalf("pooled CI survived a CI-less run: %+v", r)
	}
	if r.Mean != 1250.0/5000.0 || r.Of != "mixed" {
		t.Fatalf("pooled mean/of %+v", r)
	}
	// Empty pool: zero report, no CI.
	var empty Pool
	if r := empty.Report(0.95); r.Level != 0 || r.Mean != 0 || r.Count != 0 {
		t.Fatalf("empty pool %+v", r)
	}
}

// TestPoolOrderFree: the same reports pooled in two orders give
// bit-identical reports. Terms (eᵢ·hwᵢ)² of 1, 1e-12 and 1e-12 sum to
// floats that differ in the last bit in those orders, and the
// difference survives the square root, so only a sorted sum agrees.
func TestPoolOrderFree(t *testing.T) {
	reports := []Report{
		{Method: MethodReplication, Events: 1, Captures: 1, Mean: 1, Level: 0.95, HalfWidth: 1},
		{Method: MethodBatchMeans, Events: 1, Captures: 1, Mean: 1, Level: 0.95, HalfWidth: 1e-6},
		{Method: MethodBatchMeans, Events: 1, Captures: 0, Level: 0.95, HalfWidth: 1e-6},
	}
	var fwd, rev Pool
	for i := range reports {
		fwd.Add(reports[i])
		rev.Add(reports[len(reports)-1-i])
	}
	f, r := fwd.Report(0.95), rev.Report(0.95)
	if f != r {
		t.Fatalf("pooled report depends on order:\nforward %+v\nreverse %+v", f, r)
	}
}
