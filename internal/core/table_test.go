package core

import "testing"

func TestCompileVectorProbsMatch(t *testing.T) {
	v := Vector{Prefix: []float64{0, 0, 0.5, 0, 1}, Tail: 0.25}
	tab, err := CompileVector(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := -1; i <= 10; i++ {
		if got, want := tab.At(i), v.At(i); got != want {
			t.Errorf("At(%d) = %g, want %g", i, got, want)
		}
	}
}

// TestCompileVectorZeroRuns checks the zero-probability runs, which
// RunFrom reports as positive lengths (one-run states read negative).
func TestCompileVectorZeroRuns(t *testing.T) {
	cases := []struct {
		name string
		v    Vector
		want map[int]int64 // state -> expected RunFrom
	}{
		{
			name: "greedy-style gap then tail",
			v:    Vector{Prefix: []float64{0, 0, 0, 1}, Tail: 1},
			want: map[int]int64{1: 3, 2: 2, 3: 1, 4: -UnboundedRun, 5: -UnboundedRun, 100: -UnboundedRun},
		},
		{
			name: "zero tail saturates",
			v:    Vector{Prefix: []float64{1, 0, 0}, Tail: 0},
			want: map[int]int64{1: -1, 2: UnboundedRun, 3: UnboundedRun, 4: UnboundedRun, 1000: UnboundedRun},
		},
		{
			name: "interior gap before zero tail",
			v:    Vector{Prefix: []float64{0, 1, 0, 0.5}, Tail: 0},
			want: map[int]int64{1: 1, 2: -1, 3: 1, 4: 0, 5: UnboundedRun},
		},
		{
			name: "always on",
			v:    Vector{Prefix: nil, Tail: 1},
			want: map[int]int64{1: -UnboundedRun, 50: -UnboundedRun},
		},
		{
			name: "never on",
			v:    Vector{Prefix: nil, Tail: 0},
			want: map[int]int64{1: UnboundedRun, 7: UnboundedRun},
		},
	}
	for _, tc := range cases {
		tab, err := CompileVector(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for state, want := range tc.want {
			if got := tab.RunFrom(state); got != want {
				t.Errorf("%s: RunFrom(%d) = %d, want %d", tc.name, state, got, want)
			}
		}
	}
}

// TestCompileVectorOneRuns checks probability-one runs that a fraction or
// a zero ends, which RunFrom reports negated beside the zero runs.
func TestCompileVectorOneRuns(t *testing.T) {
	cases := []struct {
		name string
		v    Vector
		want map[int]int64 // state -> expected RunFrom
	}{
		{
			name: "runs split by a fraction and a zero",
			v:    Vector{Prefix: []float64{1, 1, 0.5, 1, 1, 0}, Tail: 0},
			want: map[int]int64{1: -2, 2: -1, 3: 0, 4: -2, 5: -1, 6: UnboundedRun, 7: UnboundedRun},
		},
		{
			name: "fractional tail",
			v:    Vector{Prefix: []float64{1, 1}, Tail: 0.5},
			want: map[int]int64{1: -2, 2: -1, 3: 0},
		},
	}
	for _, tc := range cases {
		tab, err := CompileVector(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for state, want := range tc.want {
			if got := tab.RunFrom(state); got != want {
				t.Errorf("%s: RunFrom(%d) = %d, want %d", tc.name, state, got, want)
			}
		}
	}
}

func TestCompileVectorClampsLowStates(t *testing.T) {
	tab, err := CompileVector(Vector{Prefix: []float64{0, 1}, Tail: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.RunFrom(0); got != tab.RunFrom(1) {
		t.Errorf("RunFrom(0) = %d, want state-1 value %d", got, tab.RunFrom(1))
	}
}

func TestCompileVectorRejectsInvalid(t *testing.T) {
	if _, err := CompileVector(Vector{Prefix: []float64{1.5}, Tail: 0}); err == nil {
		t.Fatal("out-of-range prefix compiled")
	}
	if _, err := CompileVector(Vector{Tail: -0.1}); err == nil {
		t.Fatal("negative tail compiled")
	}
}
