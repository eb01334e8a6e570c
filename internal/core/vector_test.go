package core

import (
	"math"
	"testing"

	"eventcap/internal/numeric"
	"eventcap/internal/rng"
)

func TestVectorAt(t *testing.T) {
	v := Vector{Prefix: []float64{0.1, 0.2, 0.3}, Tail: 0.9}
	cases := map[int]float64{-1: 0, 0: 0, 1: 0.1, 2: 0.2, 3: 0.3, 4: 0.9, 100: 0.9}
	for i, want := range cases {
		if got := v.At(i); got != want {
			t.Errorf("At(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestVectorValidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		v     Vector
		valid bool
	}{
		{"valid", Vector{Prefix: []float64{0, 1}, Tail: 0.5}, true},
		{"never-active", Vector{}, true},
		{"prefix-above-one", Vector{Prefix: []float64{1.5}}, false},
		{"prefix-two", Vector{Prefix: []float64{2}}, false},
		{"prefix-negative", Vector{Prefix: []float64{-0.1}}, false},
		{"later-prefix-above-one", Vector{Prefix: []float64{0.5, 1.5}}, false},
		{"prefix-NaN", Vector{Prefix: []float64{0.5, math.NaN()}}, false},
		{"tail-above-one", Vector{Tail: 2}, false},
		{"tail-negative", Vector{Tail: -0.5}, false},
		{"tail-NaN", Vector{Tail: math.NaN()}, false},
		{"tail-infinite", Vector{Tail: math.Inf(1)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.v.Validate()
			if tc.valid && err != nil {
				t.Fatalf("valid vector rejected: %v", err)
			}
			if !tc.valid && err == nil {
				t.Fatalf("invalid vector accepted: %+v", tc.v)
			}
		})
	}
}

func TestVectorTrimmed(t *testing.T) {
	v := Vector{Prefix: []float64{0.5, 1, 1, 1}, Tail: 1}
	got := v.trimmed()
	if len(got.Prefix) != 1 || got.Prefix[0] != 0.5 || got.Tail != 1 {
		t.Fatalf("trimmed = %+v", got)
	}
	// Values must match everywhere after trimming.
	for i := 0; i <= 10; i++ {
		if v.At(i) != got.At(i) {
			t.Fatalf("At(%d) changed by trimming", i)
		}
	}
}

func TestCaptureProbKnown(t *testing.T) {
	d := mustEmpirical(t, []float64{0.2, 0.3, 0.5})
	v := Vector{Prefix: []float64{1, 0, 0.5}}
	want := 0.2*1 + 0.5*0.5
	if got := v.CaptureProbFI(d); math.Abs(got-want) > 1e-12 {
		t.Fatalf("U = %v, want %v", got, want)
	}
}

func TestCaptureProbTailEqualsLongPrefix(t *testing.T) {
	d := mustWeibull(t, 10, 2)
	tailVec := Vector{Prefix: []float64{0, 0, 0.5}, Tail: 0.8}
	longPrefix := make([]float64, 500)
	for i := range longPrefix {
		longPrefix[i] = tailVec.At(i + 1)
	}
	longVec := Vector{Prefix: longPrefix}
	if a, b := tailVec.CaptureProbFI(d), longVec.CaptureProbFI(d); math.Abs(a-b) > 1e-9 {
		t.Fatalf("tail form %v != explicit form %v", a, b)
	}
	p := DefaultParams()
	if a, b := tailVec.EnergyRateFI(d, p), longVec.EnergyRateFI(d, p); math.Abs(a-b) > 1e-9 {
		t.Fatalf("tail energy %v != explicit energy %v", a, b)
	}
}

// TestActivationsPerCycleIdentity verifies Eq. (4):
// Σ_i α_i (Σ_{j<=i} c_j) == Σ_i c_i (1 − F(i−1)).
func TestActivationsPerCycleIdentity(t *testing.T) {
	src := rng.New(4, 4)
	for trial := 0; trial < 25; trial++ {
		d := mustEmpirical(t, randomEmpirical(src, 20))
		n := d.MaxSupport()
		prefix := make([]float64, n)
		for i := range prefix {
			prefix[i] = src.Float64()
		}
		v := Vector{Prefix: prefix}

		var double numeric.KahanSum
		for i := 1; i <= n; i++ {
			var inner float64
			for j := 1; j <= i; j++ {
				inner += v.At(j)
			}
			double.Add(d.PMF(i) * inner)
		}
		if got, want := v.ActivationsPerCycle(d), double.Value(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: ActivationsPerCycle %v != double sum %v", trial, got, want)
		}
	}
}

func TestAlwaysOnEnergyRateIsSaturation(t *testing.T) {
	d := mustWeibull(t, 40, 3)
	p := DefaultParams()
	v := Vector{Tail: 1}
	// Always-on: n(π) = μ activations per cycle, one capture per cycle.
	if got, want := v.EnergyRateFI(d, p), p.SaturationRate(d.Mean()); math.Abs(got-want) > 1e-6 {
		t.Fatalf("always-on energy rate %v, want saturation %v", got, want)
	}
	if got := v.CaptureProbFI(d); math.Abs(got-1) > 1e-9 {
		t.Fatalf("always-on U = %v, want 1", got)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Params{Delta1: 1}).Validate(); err != nil {
		t.Fatalf("δ2=0 should be legal: %v", err)
	}
	if err := (Params{}).Validate(); err == nil {
		t.Fatal("zero params accepted")
	}
	if err := (Params{Delta1: math.NaN(), Delta2: 1}).Validate(); err == nil {
		t.Fatal("NaN accepted")
	}
	p := DefaultParams()
	if p.ActivationCost() != 7 {
		t.Fatalf("activation cost %v, want 7", p.ActivationCost())
	}
	if got := p.SaturationRate(35); math.Abs(got-(1+6.0/35)) > 1e-12 {
		t.Fatalf("saturation rate %v", got)
	}
}
