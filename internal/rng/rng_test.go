package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1, 0)
	b := New(2, 0)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("seeds 1 and 2 collided on %d of 1000 draws", same)
	}
}

func TestStreamSensitivity(t *testing.T) {
	a := New(1, 0)
	b := New(1, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("streams 0 and 1 collided on %d of 1000 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(9, 0)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split children collided on %d of 1000 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	mk := func() *Source { return New(5, 3).Split(11) }
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(123, 0)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(7, 0)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestUint64nUniform(t *testing.T) {
	s := New(99, 4)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[s.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from expected %v", b, c, want)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New(3, 3)
	if err := quick.Check(func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		n = n%1000 + 1
		v := s.Uint64n(n)
		return v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	New(1, 1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	New(1, 1).Intn(0)
}

func TestBernoulli(t *testing.T) {
	s := New(21, 0)
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		const n = 100000
		hits := 0
		for i := 0; i < n; i++ {
			if s.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) frequency %v", p, got)
		}
	}
}

func TestBernoulliClamps(t *testing.T) {
	s := New(1, 0)
	if s.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) returned true")
	}
	if !s.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) returned false")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(8, 0)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance %v", variance)
	}
}

// TestBitBalance checks that each output bit is set about half the time —
// a cheap smoke test of the output permutation.
func TestBitBalance(t *testing.T) {
	s := New(77, 0)
	const n = 100000
	counts := make([]int, 64)
	for i := 0; i < n; i++ {
		v := s.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<b) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/2) > 6*math.Sqrt(n/4) {
			t.Errorf("bit %d set %d of %d times", b, c, n)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1, 0)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1, 0)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
	_ = sink
}

// TestGeometricMatchesLaw: G counts failures before the first success, so
// E[G] = (1-p)/p and P(G=0) = p.
func TestGeometricMatchesLaw(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Geometric(0) did not panic")
		}
	}()
	src := New(5, 9)
	if g := src.Geometric(1); g != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", g)
	}
	for _, p := range []float64{0.05, 0.3, 0.7} {
		const draws = 50000
		var sum float64
		zeros := 0
		for i := 0; i < draws; i++ {
			g := src.Geometric(p)
			if g < 0 {
				t.Fatalf("negative geometric draw %d", g)
			}
			sum += float64(g)
			if g == 0 {
				zeros++
			}
		}
		wantMean := (1 - p) / p
		if mean := sum / draws; math.Abs(mean-wantMean) > 0.05*wantMean+0.01 {
			t.Errorf("p=%g: mean %v, want %v", p, mean, wantMean)
		}
		if z := float64(zeros) / draws; math.Abs(z-p) > 0.02 {
			t.Errorf("p=%g: P(G=0) = %v", p, z)
		}
	}
	src.Geometric(0) // must panic
}
