// Package numeric provides the numerical routines the rest of the library
// is built on: compensated summation, discrete convolution, dense linear
// solves, bisection, and a bounded-variable simplex solver for linear
// programs.
//
// The repository is restricted to the standard library, so these replace
// what a BLAS/LAPACK or LP package would normally supply. All routines are
// deterministic and allocation-conscious; none are safe for concurrent
// mutation of shared inputs.
package numeric

// KahanSum accumulates float64 values with Kahan-Babuska compensation,
// reducing the error of long sums (e.g. tail probabilities over 10^5
// slots) from O(n·eps) to O(eps).
//
// The zero value is ready to use.
type KahanSum struct {
	sum, comp float64
}

// Add accumulates v.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if abs(k.sum) >= abs(v) {
		k.comp += (k.sum - t) + v
	} else {
		k.comp += (v - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated total.
func (k *KahanSum) Value() float64 { return k.sum + k.comp }

// Reset clears the accumulator.
func (k *KahanSum) Reset() { k.sum, k.comp = 0, 0 }

// Sum returns the compensated sum of xs.
func Sum(xs []float64) float64 {
	var k KahanSum
	for _, x := range xs {
		k.Add(x)
	}
	return k.Value()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
