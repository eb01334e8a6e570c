package sim

import "testing"

func TestLoadImbalanceCases(t *testing.T) {
	mk := func(activations ...int64) *Result {
		r := &Result{Sensors: make([]SensorStats, len(activations))}
		for i, a := range activations {
			r.Sensors[i].Activations = a
		}
		return r
	}
	cases := []struct {
		name string
		res  *Result
		want float64
	}{
		{"no sensors", &Result{}, 0},
		{"single sensor", mk(42), 0},
		{"balanced", mk(10, 10, 10), 0},
		{"all zero activations", mk(0, 0, 0), 0},
		{"unbalanced", mk(10, 30), 1}, // (30-10)/mean 20
		{"one idle sensor", mk(0, 30), 2},
	}
	for _, tc := range cases {
		if got := tc.res.LoadImbalance(); got != tc.want {
			t.Errorf("%s: LoadImbalance = %v, want %v", tc.name, got, tc.want)
		}
	}
}
