package stats

import (
	"math"
	"testing"

	"eventcap/internal/rng"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary %+v", s)
	}
	want := (1.5*1.5 + 0.5*0.5 + 0.5*0.5 + 1.5*1.5) / 3
	if math.Abs(s.Variance-want) > 1e-12 {
		t.Fatalf("variance %v, want %v", s.Variance, want)
	}
	if math.Abs(s.StdErr()-s.StdDev()/2) > 1e-12 {
		t.Fatal("stderr relation broken")
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	if s := Summarize([]float64{7}); s.Variance != 0 || s.Mean != 7 {
		t.Fatalf("single summary %+v", s)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := map[float64]float64{
		0.5:    0,
		0.975:  1.959964,
		0.995:  2.575829,
		0.025:  -1.959964,
		0.8413: 0.99982, // ~Φ(1)
	}
	for p, want := range cases {
		if got := NormalQuantile(p); math.Abs(got-want) > 2e-4 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(NormalQuantile(0)) || !math.IsNaN(NormalQuantile(1)) {
		t.Error("quantile at 0/1 should be NaN")
	}
}

func TestMeanCICoverage(t *testing.T) {
	// ~95% of 95% CIs over repeated normal samples must contain the true
	// mean.
	src := rng.New(5, 0)
	const trials, n = 800, 60
	contains := 0
	for k := 0; k < trials; k++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 3 + 2*src.NormFloat64()
		}
		iv, err := MeanCI(xs, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Lo <= 3 && 3 <= iv.Hi {
			contains++
		}
	}
	rate := float64(contains) / trials
	if rate < 0.91 || rate > 0.99 {
		t.Fatalf("95%% CI covered the mean %v of the time", rate)
	}
}

func TestMeanCIErrors(t *testing.T) {
	if _, err := MeanCI([]float64{1}, 0.95); err == nil {
		t.Fatal("single observation accepted")
	}
	if _, err := MeanCI([]float64{1, 2}, 1.5); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestChiSquareAcceptsTrueDistribution(t *testing.T) {
	src := rng.New(13, 0)
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	counts := make([]int64, 4)
	for i := 0; i < 100000; i++ {
		u := src.Float64()
		switch {
		case u < 0.1:
			counts[0]++
		case u < 0.3:
			counts[1]++
		case u < 0.6:
			counts[2]++
		default:
			counts[3]++
		}
	}
	_, dof, ok, err := ChiSquare(counts, probs)
	if err != nil {
		t.Fatal(err)
	}
	if dof != 3 {
		t.Fatalf("dof %d, want 3", dof)
	}
	if !ok {
		t.Fatal("chi-square rejected the true distribution")
	}
}

func TestChiSquareRejectsWrongDistribution(t *testing.T) {
	counts := []int64{50000, 50000} // actually 50/50
	probs := []float64{0.9, 0.1}    // claimed 90/10
	stat, _, ok, err := ChiSquare(counts, probs)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("chi-square accepted a grossly wrong model (stat %v)", stat)
	}
}

func TestChiSquarePoolsSmallCells(t *testing.T) {
	// Many tiny-probability cells must be pooled, not crash or blow up.
	probs := []float64{0.97, 0.01, 0.01, 0.005, 0.005}
	counts := []int64{388, 4, 4, 2, 2} // expected counts below 5 in the tail cells
	_, dof, ok, err := ChiSquare(counts, probs)
	if err != nil {
		t.Fatal(err)
	}
	if dof >= 4 {
		t.Fatalf("expected pooling to reduce dof, got %d", dof)
	}
	if !ok {
		t.Fatal("exact counts rejected")
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, _, err := ChiSquare([]int64{1}, []float64{1}); err == nil {
		t.Fatal("single cell accepted")
	}
	if _, _, _, err := ChiSquare([]int64{1, 2}, []float64{0.5}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, _, err := ChiSquare([]int64{-1, 2}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, _, _, err := ChiSquare([]int64{0, 0}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, _, _, err := ChiSquare([]int64{1, 2}, []float64{0.5, 0.2}); err == nil {
		t.Fatal("non-normalized probabilities accepted")
	}
}
