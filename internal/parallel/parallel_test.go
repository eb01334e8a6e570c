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
	got, err = Map(4, -3, func(int) (int, error) { return 0, errors.New("never") })
	if err != nil || got != nil {
		t.Fatalf("negative n: got %v, %v", got, err)
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

// TestPoolCountersDrainPending: the pool gauges must return to their
// starting level after every Map call — including one cut short by an
// error, where undispatched jobs drain in bulk.
func TestPoolCountersDrainPending(t *testing.T) {
	before := obs.Snapshot()
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

	after := obs.Snapshot()
	for _, gauge := range []string{"pool.pending", "pool.inflight"} {
		if after[gauge] != before[gauge] {
			t.Errorf("%s gauge leaked: %v, started at %v", gauge, after[gauge], before[gauge])
		}
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
	if after["pool.latency.count"] == before["pool.latency.count"] {
		t.Error("latency histogram empty")
	}
}
