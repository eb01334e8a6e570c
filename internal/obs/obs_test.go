package obs

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// metricSeq numbers the metric names the tests register. The registry
// is process-global and refuses a name twice, so every run of a test
// (go test -count=N) registers its metrics under names of its own.
var metricSeq atomic.Int64

// uniqueName returns base with a suffix no earlier call returned.
func uniqueName(base string) string {
	return fmt.Sprintf("%s.%d", base, metricSeq.Add(1))
}

func TestCounter(t *testing.T) {
	name := uniqueName("test.counter")
	c := NewCounter(name)
	if c.Load() != 0 {
		t.Fatalf("fresh counter = %d", c.Load())
	}
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter = %d, want 42", c.Load())
	}
	if got := Snapshot()[name]; got != 42 {
		t.Fatalf("snapshot = %v, want 42", got)
	}
}

func TestGaugeTracksHighWater(t *testing.T) {
	name := uniqueName("test.gauge")
	g := NewGauge(name)
	g.Add(3)
	g.Add(4)
	g.Add(-5)
	snap := Snapshot()
	if snap[name] != 2 || snap[name+".max"] != 7 {
		t.Fatalf("snapshot gauge=%v max=%v", snap[name], snap[name+".max"])
	}
}

func TestFloatCounter(t *testing.T) {
	f := NewFloatCounter(uniqueName("test.float"))
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
	fwdName, laterName := uniqueName("test.float_order.fwd"), uniqueName("test.float_order.later")
	fwd := NewFloatCounter(fwdName)
	rev := NewFloatCounter(uniqueName("test.float_order.rev"))
	later := NewFloatCounter(laterName)
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
	if f, l := diff[fwdName], diff[laterName]; math.Float64bits(f) != math.Float64bits(l) {
		t.Fatalf("diffs %v and %v differ by order and earlier total", f, l)
	}
	if got := fwd.Load(); math.Abs(got-0.6) > 1e-6 {
		t.Fatalf("sum = %v, want 0.6 to within the 2^-20 unit", got)
	}
}

func TestCounterVecClampsBins(t *testing.T) {
	name := uniqueName("test.vec")
	v := NewCounterVec(name, 3)
	v.Add(0, 1)
	v.Add(2, 2)
	v.Add(-5, 10) // clamps to bin 0
	v.Add(99, 20) // clamps to bin 2
	snap := Snapshot()
	if snap[name+".00"] != 11 || snap[name+".01"] != 0 || snap[name+".02"] != 22 {
		t.Fatalf("bins = %v/%v/%v", snap[name+".00"], snap[name+".01"], snap[name+".02"])
	}
}

func TestDurationHistBuckets(t *testing.T) {
	name := uniqueName("test.hist")
	h := NewDurationHist(name)
	h.Observe(500 * time.Microsecond) // le_1ms
	h.Observe(5 * time.Millisecond)   // le_10ms
	h.Observe(2 * time.Second)        // le_10s
	h.Observe(time.Hour)              // inf
	snap := Snapshot()
	for key, want := range map[string]float64{
		"le_1ms":  1,
		"le_10ms": 1,
		"le_10s":  1,
		"inf":     1,
		"le_1s":   0,
		"count":   4,
	} {
		if key = name + "." + key; snap[key] != want {
			t.Errorf("%s = %v, want %v", key, snap[key], want)
		}
	}
	wantSum := float64(500*time.Microsecond + 5*time.Millisecond + 2*time.Second + time.Hour)
	if got := snap[name+".sum_ns"]; got != wantSum {
		t.Fatalf("sum = %v ns, want %v", got, wantSum)
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	name := uniqueName("test.dup")
	NewCounter(name)
	NewCounter(name)
}

func TestDiffCountsFromSnapshot(t *testing.T) {
	name := uniqueName("test.diff")
	c := NewCounter(name)
	c.Add(10)
	before := Snapshot()
	c.Add(7)
	d := Diff(before, Snapshot())
	if d[name] != 7 {
		t.Fatalf("diff = %v, want 7", d[name])
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
