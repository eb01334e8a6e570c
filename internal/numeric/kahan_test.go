package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKahanSumExactSmall(t *testing.T) {
	var k KahanSum
	for _, v := range []float64{1, 2, 3, 4.5} {
		k.Add(v)
	}
	if got := k.Value(); got != 10.5 {
		t.Fatalf("got %v, want 10.5", got)
	}
}

func TestKahanSumBeatsNaive(t *testing.T) {
	// Sum 1 + 1e-16 repeated: naive summation loses all the small terms.
	var k KahanSum
	k.Add(1)
	naive := 1.0
	const n = 1e7
	for i := 0; i < int(n); i++ {
		k.Add(1e-16)
		naive += 1e-16
	}
	want := 1 + n*1e-16
	if got := k.Value(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("kahan got %v, want %v", got, want)
	}
	if math.Abs(naive-want) < 1e-12 {
		t.Skip("naive summation unexpectedly accurate; compensation untestable here")
	}
}

func TestKahanReset(t *testing.T) {
	var k KahanSum
	k.Add(5)
	k.Reset()
	k.Add(2)
	if got := k.Value(); got != 2 {
		t.Fatalf("after reset got %v, want 2", got)
	}
}

func TestSumMatchesLoop(t *testing.T) {
	if err := quick.Check(func(xs []float64) bool {
		// Constrain to finite, moderate values.
		clean := make([]float64, 0, len(xs))
		var want float64
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			x = math.Mod(x, 1e6)
			clean = append(clean, x)
			want += x
		}
		got := Sum(clean)
		return math.Abs(got-want) <= 1e-6*(1+math.Abs(want))
	}, nil); err != nil {
		t.Fatal(err)
	}
}
