// Package parallel is the bounded worker pool behind the reproduction's
// experiment sweeps. Every figure and ablation of the paper's Section VI
// is a set of mutually independent simulation runs (capacities ×
// recharge processes × policies), so the whole pipeline is
// embarrassingly parallel: Map fans indexed jobs across a fixed number
// of goroutines while keeping results bit-identical to a sequential
// run.
//
// Determinism contract: results are returned in job-index order, and
// each job's inputs, its random streams included, depend only on its
// index (never on scheduling). Consequently the output of a sweep is
// identical for any worker count, including 1.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"eventcap/internal/obs"
)

// Workers resolves a requested worker count: values below 1 mean "one
// worker per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError reports a panic raised inside a job, preserving the job's
// identity and the panicking goroutine's stack. Map converts panics to
// errors instead of crashing the pool, so one bad sweep point cannot
// take down a multi-hour experiment run without a diagnosis.
type PanicError struct {
	// Job is the index of the job that panicked.
	Job int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: job %d panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

// Map runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines and returns the results in index order. The first failing
// job (lowest index among jobs that ran) cancels dispatch of not-yet
// started jobs and its error is returned; in-flight jobs run to
// completion. A panic inside fn is captured as a *PanicError for that
// job rather than crashing the pool.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	obs.PoolJobsEnqueued.Add(int64(n))
	obs.PoolPending.Add(int64(n))
	// Each dispatched job moves itself from pending to in-flight; jobs an
	// early error left undispatched drain from the pending gauge here.
	var dispatched atomic.Int64
	defer func() { obs.PoolPending.Add(dispatched.Load() - int64(n)) }()

	out := make([]T, n)
	if w == 1 {
		// Sequential fast path: same semantics (panic capture, stop at
		// first error), no goroutine overhead.
		for i := 0; i < n; i++ {
			dispatched.Add(1)
			v, err := runJobObserved(i, fn)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next     atomic.Int64 // next job index to dispatch, minus one
		stop     atomic.Bool  // set on first error: stop dispatching
		mu       sync.Mutex
		firstErr error
		firstIdx = n // lowest failing job index seen so far
	)
	next.Store(-1)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				dispatched.Add(1)
				v, err := runJobObserved(i, fn)
				if err != nil {
					record(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// runJobObserved wraps runJob with the pending → in-flight → done
// bookkeeping and the latency observation shared by both Map paths.
func runJobObserved[T any](i int, fn func(int) (T, error)) (T, error) {
	obs.PoolPending.Add(-1)
	obs.PoolInFlight.Add(1)
	start := time.Now()
	v, err := runJob(i, fn)
	d := time.Since(start)
	obs.PoolInFlight.Add(-1)
	obs.PoolJobsDone.Inc()
	obs.PoolLatency.Observe(d)
	if err != nil {
		obs.PoolJobErrors.Inc()
	}
	return v, err
}

// runJob executes one job with panic capture.
func runJob[T any](i int, fn func(int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Job: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}
