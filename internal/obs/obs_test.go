package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	c := NewCounter("test.counter")
	if c.Load() != 0 {
		t.Fatalf("fresh counter = %d", c.Load())
	}
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter = %d, want 42", c.Load())
	}
	if got := Snapshot()["test.counter"]; got != 42 {
		t.Fatalf("snapshot = %v, want 42", got)
	}
}

func TestGaugeTracksHighWater(t *testing.T) {
	g := NewGauge("test.gauge")
	g.Add(3)
	g.Add(4)
	g.Add(-5)
	if g.Load() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Load())
	}
	if g.Max() != 7 {
		t.Fatalf("gauge max = %d, want 7", g.Max())
	}
	snap := Snapshot()
	if snap["test.gauge"] != 2 || snap["test.gauge.max"] != 7 {
		t.Fatalf("snapshot gauge=%v max=%v", snap["test.gauge"], snap["test.gauge.max"])
	}
}

func TestFloatCounter(t *testing.T) {
	f := NewFloatCounter("test.float")
	f.Add(0.25)
	f.Add(0.5)
	if got := f.Load(); got != 0.75 {
		t.Fatalf("float counter = %v, want 0.75", got)
	}
}

// TestFloatCounterOrderFree: the same values added in two orders give
// bit-identical sums, and bit-identical Snapshot diffs when one side
// adds on top of an earlier total. As float additions they differ in
// the last digits.
func TestFloatCounterOrderFree(t *testing.T) {
	fwd := NewFloatCounter("test.float_order.fwd")
	rev := NewFloatCounter("test.float_order.rev")
	later := NewFloatCounter("test.float_order.later")
	later.Add(6573.06) // an earlier run's total, before the snapshot
	vals := []float64{0.1, 0.2, 0.3}
	before := Snapshot()
	for i := range vals {
		fwd.Add(vals[i])
		rev.Add(vals[len(vals)-1-i])
		later.Add(vals[len(vals)-1-i])
	}
	if f, r := fwd.Load(), rev.Load(); math.Float64bits(f) != math.Float64bits(r) {
		t.Fatalf("sums %v and %v differ by summation order", f, r)
	}
	diff := Diff(before, Snapshot())
	if f, l := diff["test.float_order.fwd"], diff["test.float_order.later"]; math.Float64bits(f) != math.Float64bits(l) {
		t.Fatalf("diffs %v and %v differ by order and earlier total", f, l)
	}
	if got := fwd.Load(); math.Abs(got-0.6) > 1e-6 {
		t.Fatalf("sum = %v, want 0.6 to within the 2^-20 unit", got)
	}
}

func TestCounterVecClampsBins(t *testing.T) {
	v := NewCounterVec("test.vec", 3)
	v.Add(0, 1)
	v.Add(2, 2)
	v.Add(-5, 10) // clamps to bin 0
	v.Add(99, 20) // clamps to bin 2
	if v.Bin(0) != 11 || v.Bin(1) != 0 || v.Bin(2) != 22 {
		t.Fatalf("bins = %d/%d/%d", v.Bin(0), v.Bin(1), v.Bin(2))
	}
	if got := Snapshot()["test.vec.02"]; got != 22 {
		t.Fatalf("snapshot bin 2 = %v", got)
	}
}

func TestDurationHistBuckets(t *testing.T) {
	h := NewDurationHist("test.hist")
	h.Observe(500 * time.Microsecond) // le_1ms
	h.Observe(5 * time.Millisecond)   // le_10ms
	h.Observe(2 * time.Second)        // le_10s
	h.Observe(time.Hour)              // inf
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	snap := Snapshot()
	for key, want := range map[string]float64{
		"test.hist.le_1ms":  1,
		"test.hist.le_10ms": 1,
		"test.hist.le_10s":  1,
		"test.hist.inf":     1,
		"test.hist.le_1s":   0,
		"test.hist.count":   4,
	} {
		if snap[key] != want {
			t.Errorf("%s = %v, want %v", key, snap[key], want)
		}
	}
	wantMean := float64(500*time.Microsecond+5*time.Millisecond+2*time.Second+time.Hour) / 4
	if got := h.MeanNs(); got != wantMean {
		t.Fatalf("mean = %v ns, want %v", got, wantMean)
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewCounter("test.dup")
	NewCounter("test.dup")
}

func TestDiffCountsFromSnapshot(t *testing.T) {
	c := NewCounter("test.diff")
	c.Add(10)
	before := Snapshot()
	c.Add(7)
	d := Diff(before, Snapshot())
	if d["test.diff"] != 7 {
		t.Fatalf("diff = %v, want 7", d["test.diff"])
	}
	// A key absent from before counts from zero.
	d2 := Diff(map[string]float64{}, map[string]float64{"x": 3})
	if d2["x"] != 3 {
		t.Fatalf("diff with missing before = %v", d2["x"])
	}
}

func TestFilterPrefix(t *testing.T) {
	snap := map[string]float64{"sim.events": 1, "sim.captures": 2, "pool.jobs.done": 3, "cache.policy.hits": 4}
	sim := FilterPrefix(snap, "sim.")
	if len(sim) != 2 || sim["sim.events"] != 1 {
		t.Fatalf("sim filter = %v", sim)
	}
	proc := FilterPrefix(snap, "cache.", "pool.")
	if len(proc) != 2 || proc["pool.jobs.done"] != 3 || proc["cache.policy.hits"] != 4 {
		t.Fatalf("process filter = %v", proc)
	}
}

func TestDigestConfigStableAndSeparatorSafe(t *testing.T) {
	a := DigestConfig("experiment=fig3a", "seed=1")
	if a != DigestConfig("experiment=fig3a", "seed=1") {
		t.Fatal("digest not deterministic")
	}
	if !strings.HasPrefix(a, "sha256:") {
		t.Fatalf("digest %q missing prefix", a)
	}
	if a == DigestConfig("experiment=fig3a", "seed=2") {
		t.Fatal("digest ignores part values")
	}
	// The NUL separator must keep part boundaries from aliasing.
	if DigestConfig("ab", "c") == DigestConfig("a", "bc") {
		t.Fatal("digest aliases across part boundaries")
	}
}

func TestProgressLine(t *testing.T) {
	now := time.Unix(1000, 0)
	p := &Progress{nowFunc: func() time.Time { return now }}
	if got := p.Line(); got != "progress: no jobs enqueued yet" {
		t.Fatalf("empty line = %q", got)
	}
	p.Enqueued(8)
	p.Started()
	p.Finished(100*time.Millisecond, nil)
	p.Started()
	p.Finished(300*time.Millisecond, fmt.Errorf("boom"))
	done, total := p.Done()
	if done != 2 || total != 8 {
		t.Fatalf("done/total = %d/%d", done, total)
	}
	// 2/8 jobs completed in 2s of wall time → the whole-job
	// extrapolation prices the remaining 6 at 2s × 6/2 = 6s.
	now = now.Add(2 * time.Second)
	line := p.Line()
	for _, want := range []string{"2/8 jobs", "25%", "avg 200ms/job", "eta 6s", "1 failed"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

func TestProgressWorkUnitsDriveThroughputAndETA(t *testing.T) {
	now := time.Unix(2000, 0)
	p := &Progress{nowFunc: func() time.Time { return now }}
	p.Enqueued(1)
	p.Started()
	p.AddWork(4_000_000)
	p.FinishWork(1_000_000)
	if wd, wt := p.Work(); wd != 1_000_000 || wt != 4_000_000 {
		t.Fatalf("work = %d/%d", wd, wt)
	}
	// No job has finished, so the whole-job estimate is silent; the
	// slot-unit rate (1M slots in 10s, 3M left) still yields an ETA.
	now = now.Add(10 * time.Second)
	line := p.Line()
	for _, want := range []string{"0/1 jobs", "1M slots", "@ 100k/s", "eta 30s"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

func TestProgressETATakesLargerEstimate(t *testing.T) {
	now := time.Unix(3000, 0)
	p := &Progress{nowFunc: func() time.Time { return now }}
	p.Enqueued(2)
	p.Started()
	p.Finished(time.Second, nil)
	p.AddWork(10_000_000)
	p.FinishWork(1_000_000)
	now = now.Add(4 * time.Second)
	// Job estimate: 4s × 1/1 = 4s. Slot estimate: 4s × 9M/1M = 36s.
	if line := p.Line(); !strings.Contains(line, "eta 36s") {
		t.Errorf("line %q: want the larger (slot-unit) eta 36s", line)
	}
}

func TestProgressWorkNilSafe(t *testing.T) {
	var p *Progress
	p.AddWork(5)    // must not panic
	p.FinishWork(5) // must not panic
}

func TestHumanCount(t *testing.T) {
	for n, want := range map[float64]string{
		900:           "900",
		12_500:        "12.5k",
		1_000_000:     "1M",
		2_500_000_000: "2.5G",
	} {
		if got := humanCount(n); got != want {
			t.Errorf("humanCount(%v) = %q, want %q", n, got, want)
		}
	}
}

func TestServeMetricsExposesVarsAndPprof(t *testing.T) {
	marker := NewCounter("test.serve.marker")
	marker.Add(123)
	addr, stop, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, `"eventcap"`) || !strings.Contains(vars, `"test.serve.marker":123`) {
		t.Errorf("/debug/vars missing eventcap metrics:\n%.400s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%.400s", idx)
	}
}
