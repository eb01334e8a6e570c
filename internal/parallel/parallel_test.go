package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eventcap/internal/obs"
	"eventcap/internal/rng"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty Map: got %v, %v", got, err)
	}
	if err := ForEach(4, -3, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("negative n: %v", err)
	}
}

func TestMapFirstErrorLowestIndex(t *testing.T) {
	errAt := func(bad map[int]bool) func(int) (int, error) {
		return func(i int) (int, error) {
			if bad[i] {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		}
	}
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(workers, 50, errAt(map[int]bool{7: true, 31: true, 44: true}))
		if err == nil || !strings.Contains(err.Error(), "job 7 failed") {
			t.Fatalf("workers=%d: want lowest-index error, got %v", workers, err)
		}
	}
}

func TestMapErrorCancelsDispatch(t *testing.T) {
	var started atomic.Int64
	_, err := Map(2, 10_000, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("boom")
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("error did not cancel dispatch: %d jobs started", n)
	}
}

func TestMapPanicCaptured(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := Map(workers, 20, func(i int) (int, error) {
			if i == 13 {
				panic("unlucky")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PanicError, got %v", workers, err)
		}
		if pe.Job != 13 || pe.Value != "unlucky" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: bad PanicError: job=%d value=%v stackLen=%d",
				workers, pe.Job, pe.Value, len(pe.Stack))
		}
		if !strings.Contains(pe.Error(), "job 13 panicked: unlucky") {
			t.Fatalf("workers=%d: message %q", workers, pe.Error())
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	_, err := Map(workers, 200, func(i int) (int, error) {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs with %d workers", p, workers)
	}
}

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-2) = %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(4, 100, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", sum.Load())
	}
}

// TestMapSeededDeterministic is the package's core guarantee: per-job
// streams depend only on (seed, index), so any worker count draws the
// same numbers.
func TestMapSeededDeterministic(t *testing.T) {
	draw := func(workers int) []uint64 {
		out, err := MapSeeded(workers, 64, 42, func(i int, src *rng.Source) (uint64, error) {
			// A few draws per job to exercise stream state.
			v := src.Uint64()
			v ^= src.Uint64()
			return v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	want := draw(1)
	for _, workers := range []int{2, 8, 0} {
		got := draw(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: job %d drew %x, want %x", workers, i, got[i], want[i])
			}
		}
	}
	// Distinct jobs must get distinct streams.
	seen := make(map[uint64]int)
	for i, v := range want {
		if j, dup := seen[v]; dup {
			t.Fatalf("jobs %d and %d drew identical values", i, j)
		}
		seen[v] = i
	}
	// Distinct seeds must decorrelate.
	other, err := MapSeeded(4, 64, 43, func(i int, src *rng.Source) (uint64, error) {
		v := src.Uint64()
		v ^= src.Uint64()
		return v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range want {
		if want[i] == other[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d of 64 jobs drew identical values under different seeds", same)
	}
}

// TestPoolCountersDrainPending: the pool gauges must return to their
// starting level after every Map call — including one cut short by an
// error, where undispatched jobs drain in bulk.
func TestPoolCountersDrainPending(t *testing.T) {
	pending0 := obs.PoolPending.Load()
	inflight0 := obs.PoolInFlight.Load()
	done0 := obs.PoolJobsDone.Load()
	enq0 := obs.PoolJobsEnqueued.Load()
	errs0 := obs.PoolJobErrors.Load()

	if _, err := Map(4, 30, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	_, err := Map(2, 1000, func(i int) (int, error) {
		if i == 0 {
			return 0, errors.New("boom")
		}
		time.Sleep(time.Microsecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}

	if got := obs.PoolPending.Load(); got != pending0 {
		t.Errorf("pending gauge leaked: %d, started at %d", got, pending0)
	}
	if got := obs.PoolInFlight.Load(); got != inflight0 {
		t.Errorf("inflight gauge leaked: %d, started at %d", got, inflight0)
	}
	if got := obs.PoolJobsEnqueued.Load() - enq0; got != 1030 {
		t.Errorf("enqueued delta = %d, want 1030", got)
	}
	if got := obs.PoolJobErrors.Load() - errs0; got < 1 {
		t.Errorf("error counter delta = %d", got)
	}
	done := obs.PoolJobsDone.Load() - done0
	if done < 31 || done > 1030 {
		t.Errorf("done delta = %d, want in [31, 1030]", done)
	}
	if obs.PoolLatency.Count() == 0 {
		t.Error("latency histogram empty")
	}
}
