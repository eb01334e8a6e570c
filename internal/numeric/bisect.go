package numeric

// MaximizeMonotoneBudget finds the largest x in [0, 1] such that
// cost(x) <= budget, assuming cost is nondecreasing in x. It is used to
// pick fractional activation probabilities that exactly exhaust an energy
// budget. If even cost(0) exceeds the budget it returns 0 and false.
func MaximizeMonotoneBudget(cost func(float64) float64, budget, tol float64) (float64, bool) {
	if cost(0) > budget {
		return 0, false
	}
	if cost(1) <= budget {
		return 1, true
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 200 && hi-lo > tol; i++ {
		mid := lo + (hi-lo)/2
		if cost(mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}
