package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestRegistryBeginComplete(t *testing.T) {
	r := NewRegistry()
	a := r.Begin("fig3a", "sha256:1", nil, nil)
	b := r.Begin("fig3b", "sha256:2", nil, nil)
	active := r.ActiveRuns()
	if len(active) != 2 || active[0].Name != "fig3a" || active[1].Name != "fig3b" {
		t.Fatalf("active = %v", active)
	}

	a.Complete(&Manifest{Experiment: "fig3a"})
	b.Complete(&Manifest{Experiment: "fig3b", Error: "boom"})
	if len(r.ActiveRuns()) != 0 {
		t.Fatal("completed runs still active")
	}
	done := r.CompletedRuns()
	if len(done) != 2 {
		t.Fatalf("completed = %d", len(done))
	}
	// Most recent first.
	if done[0].Manifest.Experiment != "fig3b" || done[1].Manifest.Experiment != "fig3a" {
		t.Fatalf("completed order = %s, %s", done[0].Manifest.Experiment, done[1].Manifest.Experiment)
	}
	if done[0].Finished.IsZero() {
		t.Fatal("completed run missing finish time")
	}
}

func TestRegistryCompleteIdempotentAndNilSafe(t *testing.T) {
	r := NewRegistry()
	a := r.Begin("x", "", nil, nil)
	a.Complete(&Manifest{Experiment: "x"})
	a.Complete(&Manifest{Experiment: "x", Error: "late"}) // no-op
	if done := r.CompletedRuns(); len(done) != 1 || done[0].Manifest.Error != "" {
		t.Fatalf("completed = %v", done)
	}
	var nilRun *ActiveRun
	nilRun.Complete(&Manifest{}) // must not panic
}

func TestRegistryCompletedRingBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < completedRingSize+10; i++ {
		a := r.Begin(fmt.Sprintf("run%d", i), "", nil, nil)
		a.Complete(&Manifest{Experiment: fmt.Sprintf("run%d", i)})
	}
	done := r.CompletedRuns()
	if len(done) != completedRingSize {
		t.Fatalf("ring = %d, want %d", len(done), completedRingSize)
	}
	if done[0].Manifest.Experiment != fmt.Sprintf("run%d", completedRingSize+9) {
		t.Fatalf("newest = %s", done[0].Manifest.Experiment)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := r.Begin(fmt.Sprintf("run%d", i), "", nil, nil)
			a.Complete(&Manifest{Experiment: fmt.Sprintf("run%d", i)})
		}(i)
	}
	wg.Wait()
	if n := len(r.ActiveRuns()); n != 0 {
		t.Fatalf("active after all complete = %d", n)
	}
	if n := len(r.CompletedRuns()); n != 50 {
		t.Fatalf("completed = %d, want 50", n)
	}
}

func TestRegistryMetrics(t *testing.T) {
	reg, act, comp := RunsRegistered.Load(), RunsActive.Load(), RunsCompleted.Load()
	r := NewRegistry()
	a := r.Begin("m", "", nil, nil)
	if RunsActive.Load() != act+1 {
		t.Fatalf("runs.active = %d, want %d", RunsActive.Load(), act+1)
	}
	a.Complete(&Manifest{Experiment: "m"})
	if RunsRegistered.Load() != reg+1 || RunsActive.Load() != act || RunsCompleted.Load() != comp+1 {
		t.Fatalf("metrics = %d/%d/%d", RunsRegistered.Load(), RunsActive.Load(), RunsCompleted.Load())
	}
}
