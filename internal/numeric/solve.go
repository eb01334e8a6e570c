package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("numeric: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("numeric: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// SolveLinear solves A·x = b in place using Gaussian elimination with
// partial pivoting. A must be square with A.Rows == len(b). A and b are
// clobbered. It returns ErrSingular when no unique solution exists.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("numeric: SolveLinear needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("numeric: SolveLinear rhs length %d != %d", len(b), n)
	}
	for col := 0; col < n; col++ {
		// Partial pivot: pick the largest magnitude entry in this column.
		pivot, pivotAbs := col, math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > pivotAbs {
				pivot, pivotAbs = r, v
			}
		}
		if pivotAbs < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			b[pivot], b[col] = b[col], b[pivot]
		}
		pv := a.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := a.At(r, col) / pv
			if factor == 0 {
				continue
			}
			a.Set(r, col, 0)
			for c := col + 1; c < n; c++ {
				a.Set(r, c, a.At(r, c)-factor*a.At(col, c))
			}
			b[r] -= factor * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a.At(i, j) * x[j]
		}
		x[i] = sum / a.At(i, i)
	}
	return x, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// StationaryDistribution returns the stationary distribution y of the
// row-stochastic transition matrix P (y·P = y, Σy = 1) by solving the
// linear system (Pᵀ - I)y = 0 with the normalization constraint replacing
// the last equation. P must be square.
func StationaryDistribution(p *Matrix) ([]float64, error) {
	n := p.Rows
	if p.Cols != n {
		return nil, fmt.Errorf("numeric: StationaryDistribution needs square matrix, got %dx%d", p.Rows, p.Cols)
	}
	if n == 0 {
		return nil, errors.New("numeric: empty transition matrix")
	}
	a := NewMatrix(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// Row i of (Pᵀ - I): Σ_j (P[j][i] - δij) y_j = 0.
			v := p.At(j, i)
			if i == j {
				v--
			}
			a.Set(i, j, v)
		}
	}
	// Replace the last equation by Σ y_j = 1.
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b[n-1] = 1
	y, err := SolveLinear(a, b)
	if err != nil {
		return nil, fmt.Errorf("stationary distribution: %w", err)
	}
	// Clip tiny negative components caused by roundoff and renormalize.
	var sum KahanSum
	for i, v := range y {
		if v < 0 {
			if v < -1e-8 {
				return nil, fmt.Errorf("stationary distribution has negative mass %g at state %d", v, i)
			}
			y[i] = 0
			v = 0
		}
		sum.Add(v)
	}
	total := sum.Value()
	if total <= 0 {
		return nil, ErrSingular
	}
	for i := range y {
		y[i] /= total
	}
	return y, nil
}
