package core

import (
	"math"
	"sync"
	"testing"

	"eventcap/internal/dist"
)

func resetCache(t *testing.T) {
	t.Helper()
	ResetPolicyCache()
	t.Cleanup(ResetPolicyCache)
}

func TestGreedyFICachedMatchesUncached(t *testing.T) {
	resetCache(t)
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	want, err := GreedyFI(d, 0.5, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GreedyFICached(d, 0.5, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.CaptureProb != want.CaptureProb || got.EnergyRate != want.EnergyRate {
		t.Fatalf("cached result differs: %+v vs %+v", got, want)
	}
	again, err := GreedyFICached(d, 0.5, p)
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Fatal("second call did not return the memoized pointer")
	}
	hits, misses := CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestCacheKeyDistinguishesInputs(t *testing.T) {
	resetCache(t)
	w1, _ := dist.NewWeibull(40, 3)
	w2, _ := dist.NewWeibull(40, 3.0000001)
	p := DefaultParams()
	r1, err := GreedyFICached(w1, 0.5, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := GreedyFICached(w2, 0.5, p)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("distinct distributions shared a cache entry")
	}
	r3, err := GreedyFICached(w1, 0.5000001, p)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("distinct rates shared a cache entry")
	}
	r4, err := GreedyFICached(w1, 0.5, Params{Delta1: 1, Delta2: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r4 == r1 {
		t.Fatal("distinct params shared a cache entry")
	}
}

func TestClusteringCachedKeyIncludesOptions(t *testing.T) {
	resetCache(t)
	d, _ := dist.NewWeibull(40, 3)
	p := DefaultParams()
	a, err := OptimizeClusteringCached(d, 0.5, p, ClusteringOptions{CoarsePoints: 8, MaxGap: 512})
	if err != nil {
		t.Fatal(err)
	}
	b, err := OptimizeClusteringCached(d, 0.5, p, ClusteringOptions{CoarsePoints: 8, MaxGap: 256})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct clustering options shared a cache entry")
	}
	c, err := OptimizeClusteringCached(d, 0.5, p, ClusteringOptions{CoarsePoints: 8, MaxGap: 512})
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("equal options did not hit the cache")
	}
}

// TestEmpiricalCacheKeyedByContents: two Empirical distributions share a
// display name but must not share cache entries unless their PMFs match.
func TestEmpiricalCacheKeyedByContents(t *testing.T) {
	resetCache(t)
	p := DefaultParams()
	e1, err := dist.NewEmpirical([]float64{0.1, 0.3, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := dist.NewEmpirical([]float64{0.6, 0.3, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if e1.Name() != e2.Name() {
		t.Fatalf("test premise broken: names differ (%s, %s)", e1.Name(), e2.Name())
	}
	r1, err := GreedyFICached(e1, 0.5, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := GreedyFICached(e2, 0.5, p)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("different empirical PMFs shared a cache entry")
	}
	e3, err := dist.NewEmpirical([]float64{0.1, 0.3, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := GreedyFICached(e3, 0.5, p)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Fatal("identical empirical PMFs did not share a cache entry")
	}
}

// TestCacheConcurrentSingleflight: many goroutines asking for the same
// key must produce one computation and identical pointers (run under
// -race in tier-1).
func TestCacheConcurrentSingleflight(t *testing.T) {
	resetCache(t)
	d, _ := dist.NewWeibull(40, 3)
	p := DefaultParams()
	const goroutines = 16
	results := make([]*FIResult, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := GreedyFICached(d, 0.7, p)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = r
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d got a different pointer", g)
		}
	}
	_, misses := CacheStats()
	if misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 computation", misses)
	}
}

// TestCachedSolversAgree: the LP cached wrapper and the Lagrangian solver
// agree with greedy on the optimum (Theorem 1).
func TestCachedSolversAgree(t *testing.T) {
	resetCache(t)
	d, _ := dist.NewWeibull(40, 3)
	p := DefaultParams()
	g, err := GreedyFICached(d, 0.4, p)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := LPFICached(d, 0.4, p, 300)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.CaptureProb-lp.CaptureProb) > 1e-6 {
		t.Fatalf("greedy %v vs LP %v", g.CaptureProb, lp.CaptureProb)
	}
	lg, err := LagrangianFI(d, 0.4, p, 300)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.CaptureProb-lg.CaptureProb) > 5e-3 {
		t.Fatalf("greedy %v vs Lagrangian %v", g.CaptureProb, lg.CaptureProb)
	}
}
