package numeric

import (
	"errors"
	"math"
	"sort"
	"testing"

	"eventcap/internal/rng"
)

func TestSimplexTextbook(t *testing.T) {
	// maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
	// Optimum: x=2, y=6, objective 36.
	lp := NewLP(2)
	lp.SetObjective([]float64{3, 5}, true)
	lp.AddConstraint([]float64{1, 0}, LessEq, 4)
	lp.AddConstraint([]float64{0, 2}, LessEq, 12)
	lp.AddConstraint([]float64{3, 2}, LessEq, 18)
	sol, err := lp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-36) > 1e-9 {
		t.Fatalf("objective %v, want 36", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > 1e-9 || math.Abs(sol.X[1]-6) > 1e-9 {
		t.Fatalf("solution %v, want [2 6]", sol.X)
	}
}

func TestSimplexMinimize(t *testing.T) {
	// minimize x + y s.t. x + 2y >= 4, 3x + y >= 6. Optimum at
	// intersection: x = 8/5, y = 6/5, objective 14/5.
	lp := NewLP(2)
	lp.SetObjective([]float64{1, 1}, false)
	lp.AddConstraint([]float64{1, 2}, GreaterEq, 4)
	lp.AddConstraint([]float64{3, 1}, GreaterEq, 6)
	sol, err := lp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-2.8) > 1e-9 {
		t.Fatalf("objective %v, want 2.8", sol.Objective)
	}
}

func TestSimplexEquality(t *testing.T) {
	// maximize x + 2y s.t. x + y = 3, x <= 2. Optimum x=0, y=3, obj 6.
	lp := NewLP(2)
	lp.SetObjective([]float64{1, 2}, true)
	lp.AddConstraint([]float64{1, 1}, Equal, 3)
	lp.AddConstraint([]float64{1, 0}, LessEq, 2)
	sol, err := lp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-6) > 1e-9 {
		t.Fatalf("objective %v, want 6", sol.Objective)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	lp := NewLP(1)
	lp.SetObjective([]float64{1}, true)
	lp.AddConstraint([]float64{1}, GreaterEq, 5)
	lp.AddConstraint([]float64{1}, LessEq, 1)
	if _, err := lp.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("got %v, want ErrInfeasible", err)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	lp := NewLP(2)
	lp.SetObjective([]float64{1, 1}, true)
	lp.AddConstraint([]float64{1, -1}, LessEq, 1)
	if _, err := lp.Solve(); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("got %v, want ErrUnbounded", err)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// maximize x s.t. -x <= -2 (i.e. x >= 2), x <= 5.
	lp := NewLP(1)
	lp.SetObjective([]float64{1}, true)
	lp.AddConstraint([]float64{-1}, LessEq, -2)
	lp.AddConstraint([]float64{1}, LessEq, 5)
	sol, err := lp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-5) > 1e-9 {
		t.Fatalf("objective %v, want 5", sol.Objective)
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// A degenerate vertex (redundant constraints meeting at the optimum)
	// exercises the anti-cycling fallback.
	lp := NewLP(2)
	lp.SetObjective([]float64{1, 1}, true)
	lp.AddConstraint([]float64{1, 0}, LessEq, 1)
	lp.AddConstraint([]float64{0, 1}, LessEq, 1)
	lp.AddConstraint([]float64{1, 1}, LessEq, 2)
	lp.AddConstraint([]float64{2, 2}, LessEq, 4)
	sol, err := lp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("objective %v, want 2", sol.Objective)
	}
}

// TestSimplexFractionalKnapsack checks the LP solver against the analytic
// greedy solution of randomized fractional knapsacks — the exact structure
// of the paper's full-information program (7)-(8).
func TestSimplexFractionalKnapsack(t *testing.T) {
	s := rng.New(31, 0)
	for trial := 0; trial < 40; trial++ {
		n := 2 + s.Intn(20)
		value := make([]float64, n)
		weight := make([]float64, n)
		var totalW float64
		for i := 0; i < n; i++ {
			value[i] = s.Float64() + 0.01
			weight[i] = s.Float64() + 0.01
			totalW += weight[i]
		}
		budget := s.Float64() * totalW

		// Analytic greedy by value density.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return value[idx[a]]/weight[idx[a]] > value[idx[b]]/weight[idx[b]]
		})
		remaining := budget
		var want float64
		for _, i := range idx {
			if remaining <= 0 {
				break
			}
			take := 1.0
			if weight[i] > remaining {
				take = remaining / weight[i]
			}
			want += take * value[i]
			remaining -= take * weight[i]
		}

		lp := NewLP(n)
		lp.SetObjective(value, true)
		lp.AddConstraint(weight, LessEq, budget)
		unit := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := range unit {
				unit[j] = 0
			}
			unit[i] = 1
			lp.AddConstraint(unit, LessEq, 1)
		}
		sol, err := lp.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(sol.Objective-want) > 1e-7*(1+want) {
			t.Fatalf("trial %d: LP %v != greedy %v", trial, sol.Objective, want)
		}
		for i, x := range sol.X {
			if x < -1e-9 || x > 1+1e-9 {
				t.Fatalf("trial %d: x[%d]=%v out of [0,1]", trial, i, x)
			}
		}
	}
}

func TestSimplexSolutionFeasibility(t *testing.T) {
	// Property: returned solutions satisfy every constraint.
	s := rng.New(77, 0)
	for trial := 0; trial < 30; trial++ {
		n := 1 + s.Intn(8)
		m := 1 + s.Intn(8)
		lp := NewLP(n)
		obj := make([]float64, n)
		for i := range obj {
			obj[i] = 2*s.Float64() - 1
		}
		lp.SetObjective(obj, true)
		type con struct {
			coef []float64
			rhs  float64
		}
		cons := make([]con, 0, m+1)
		for k := 0; k < m; k++ {
			coef := make([]float64, n)
			for i := range coef {
				coef[i] = s.Float64() // nonnegative keeps it bounded-ish
			}
			rhs := s.Float64() * 5
			lp.AddConstraint(coef, LessEq, rhs)
			cons = append(cons, con{coef, rhs})
		}
		// A box to guarantee boundedness.
		all := make([]float64, n)
		for i := range all {
			all[i] = 1
		}
		lp.AddConstraint(all, LessEq, 100)
		cons = append(cons, con{all, 100})

		sol, err := lp.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for ci, c := range cons {
			var lhs float64
			for i, a := range c.coef {
				lhs += a * sol.X[i]
			}
			if lhs > c.rhs+1e-7 {
				t.Fatalf("trial %d: constraint %d violated", trial, ci)
			}
		}
		for i, x := range sol.X {
			if x < -1e-9 {
				t.Fatalf("trial %d: x[%d]=%v negative", trial, i, x)
			}
		}
	}
}

func TestLPPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero vars":           func() { NewLP(0) },
		"objective mismatch":  func() { NewLP(2).SetObjective([]float64{1}, true) },
		"constraint mismatch": func() { NewLP(2).AddConstraint([]float64{1}, LessEq, 0) },
		"bad relation":        func() { NewLP(1).AddConstraint([]float64{1}, Relation(0), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRelationString(t *testing.T) {
	if LessEq.String() != "<=" || Equal.String() != "=" || GreaterEq.String() != ">=" {
		t.Fatal("Relation.String mismatch")
	}
	if Relation(0).String() != "Relation(0)" {
		t.Fatal("invalid relation should format numerically")
	}
}

func TestMaximizeMonotoneBudget(t *testing.T) {
	cost := func(x float64) float64 { return 3 * x }
	x, ok := MaximizeMonotoneBudget(cost, 1.5, 1e-12)
	if !ok || math.Abs(x-0.5) > 1e-9 {
		t.Fatalf("got (%v, %v), want (0.5, true)", x, ok)
	}
	// Budget covers the whole range.
	if x, ok := MaximizeMonotoneBudget(cost, 10, 1e-12); !ok || x != 1 {
		t.Fatalf("got (%v, %v), want (1, true)", x, ok)
	}
	// Budget below cost(0).
	costHigh := func(x float64) float64 { return 5 + x }
	if x, ok := MaximizeMonotoneBudget(costHigh, 1, 1e-12); ok || x != 0 {
		t.Fatalf("got (%v, %v), want (0, false)", x, ok)
	}
}

func BenchmarkSimplexKnapsack200(b *testing.B) {
	s := rng.New(5, 0)
	const n = 200
	value := make([]float64, n)
	weight := make([]float64, n)
	for i := 0; i < n; i++ {
		value[i] = s.Float64() + 0.01
		weight[i] = s.Float64() + 0.01
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp := NewLP(n)
		lp.SetObjective(value, true)
		lp.AddConstraint(weight, LessEq, 30)
		unit := make([]float64, n)
		for j := 0; j < n; j++ {
			for k := range unit {
				unit[k] = 0
			}
			unit[j] = 1
			lp.AddConstraint(unit, LessEq, 1)
		}
		if _, err := lp.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
