package numeric

import (
	"errors"
	"math"
	"testing"

	"eventcap/internal/rng"
)

func TestSolveLinearKnown(t *testing.T) {
	// 2x + y = 5; x - y = 1  =>  x = 2, y = 1.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, -1)
	x, err := SolveLinear(a, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("got %v, want [2 1]", x)
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := SolveLinear(a, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("got %v, want [4 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveLinear(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

func TestSolveLinearRejectsNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestSolveLinearRejectsBadRHS(t *testing.T) {
	a := NewMatrix(2, 2)
	if _, err := SolveLinear(a, []float64{1}); err == nil {
		t.Fatal("expected error for rhs length mismatch")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	s := rng.New(11, 0)
	for trial := 0; trial < 50; trial++ {
		n := 1 + s.Intn(12)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = 2*s.Float64() - 1
		}
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = 2*s.Float64() - 1
		}
		b := make([]float64, n)
		for i := range b {
			for j, x := range want {
				b[i] += a.At(i, j) * x
			}
		}
		got, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestStationaryTwoState(t *testing.T) {
	// P = [[0.9 0.1],[0.5 0.5]] has stationary (5/6, 1/6).
	p := NewMatrix(2, 2)
	p.Set(0, 0, 0.9)
	p.Set(0, 1, 0.1)
	p.Set(1, 0, 0.5)
	p.Set(1, 1, 0.5)
	y, err := StationaryDistribution(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-5.0/6) > 1e-10 || math.Abs(y[1]-1.0/6) > 1e-10 {
		t.Fatalf("got %v, want [5/6 1/6]", y)
	}
}

func TestStationaryRandomChain(t *testing.T) {
	s := rng.New(4, 0)
	for trial := 0; trial < 30; trial++ {
		n := 2 + s.Intn(15)
		p := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			var total float64
			row := make([]float64, n)
			for j := range row {
				row[j] = s.Float64() + 0.01 // strictly positive => ergodic
				total += row[j]
			}
			for j := range row {
				p.Set(i, j, row[j]/total)
			}
		}
		y, err := StationaryDistribution(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// y P = y and Σ y = 1.
		if math.Abs(Sum(y)-1) > 1e-10 {
			t.Fatalf("trial %d: distribution sums to %v", trial, Sum(y))
		}
		for j := 0; j < n; j++ {
			var col float64
			for i := 0; i < n; i++ {
				col += y[i] * p.At(i, j)
			}
			if math.Abs(col-y[j]) > 1e-9 {
				t.Fatalf("trial %d: (yP)[%d]=%v != y[%d]=%v", trial, j, col, j, y[j])
			}
		}
	}
}

func TestStationaryEmpty(t *testing.T) {
	if _, err := StationaryDistribution(NewMatrix(0, 0)); err == nil {
		t.Fatal("expected error for empty matrix")
	}
}

func TestStationaryRejectsNonSquare(t *testing.T) {
	if _, err := StationaryDistribution(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}
