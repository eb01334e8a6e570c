package energy

import (
	"math"
	"testing"

	"eventcap/internal/rng"
)

// snapshot captures the externally visible battery totals.
type snapshot struct {
	level, capacity, received, overflow float64
}

func snap(b *Battery) snapshot {
	return snapshot{b.Level(), b.Capacity(), b.Received(), b.OverflowLost()}
}

// TestRechargeNMatchesSequential verifies the closed form is bit-identical
// to the loop across level regimes, including runs that cross the overflow
// boundary mid-way.
func TestRechargeNMatchesSequential(t *testing.T) {
	cases := []struct {
		capacity, initial, amount float64
		n                         int64
	}{
		{1000, 500, 0.5, 1},
		{1000, 500, 0.5, 999},        // stays below capacity
		{1000, 500, 0.5, 1000},       // lands exactly on capacity
		{1000, 500, 0.5, 5000},       // overflows mid-run
		{1000, 1000, 1, 100},         // starts full, pure overflow
		{7, 3.5, 0.25, 400},          // small capacity, fractional grid values
		{100, 0, 5, 19},              // integral amounts
		{100, 0.25, 0.0009765625, 3}, // 2^-10 amounts, fine grid
	}
	for _, tc := range cases {
		fast, _ := NewBattery(tc.capacity, tc.initial)
		slow, _ := NewBattery(tc.capacity, tc.initial)
		if !fast.RechargeN(tc.amount, tc.n) {
			t.Fatalf("RechargeN(%g, %d) on K=%g refused grid-exact inputs", tc.amount, tc.n, tc.capacity)
		}
		for i := int64(0); i < tc.n; i++ {
			slow.Recharge(tc.amount)
		}
		if snap(fast) != snap(slow) {
			t.Errorf("RechargeN(%g, %d) K=%g init=%g: fast %+v != slow %+v",
				tc.amount, tc.n, tc.capacity, tc.initial, snap(fast), snap(slow))
		}
	}
}

// TestRechargeNRefusesOffGrid checks that inputs the closed form cannot
// prove exact are refused with the battery untouched, so callers can fall
// back to iterating.
func TestRechargeNRefusesOffGrid(t *testing.T) {
	cases := []struct {
		capacity, initial, amount float64
		n                         int64
	}{
		{1000, 500, 0.1, 10},       // 0.1 is not a dyadic rational
		{1000, 1.0 / 3.0, 0.5, 10}, // off-grid level
		{1000.3, 500, 0.5, 10},     // off-grid capacity
		{1000, 500, 0.5, 1 << 40},  // total blows the exactness bound
		{1000, 500, 1 << 30, 4},    // amount*n beyond gridMax
	}
	for _, tc := range cases {
		b, _ := NewBattery(tc.capacity, tc.initial)
		before := snap(b)
		if b.RechargeN(tc.amount, tc.n) {
			t.Errorf("RechargeN(%g, %d) K=%g init=%g: accepted off-grid input", tc.amount, tc.n, tc.capacity, tc.initial)
		}
		if snap(b) != before {
			t.Errorf("refused RechargeN mutated the battery: %+v -> %+v", before, snap(b))
		}
	}
}

// TestRechargeNTrivial covers the n<=0 / amount<=0 no-op contract.
func TestRechargeNTrivial(t *testing.T) {
	b, _ := NewBattery(10, 5)
	before := snap(b)
	for _, ok := range []bool{b.RechargeN(0.5, 0), b.RechargeN(0.5, -3), b.RechargeN(0, 7), b.RechargeN(-1, 7)} {
		if !ok {
			t.Fatal("trivial RechargeN must report success")
		}
	}
	if snap(b) != before {
		t.Fatal("trivial RechargeN mutated the battery")
	}
}

// TestConstantFastForwardBitIdentical compares FastForward against the
// sequential Next/Recharge loop the kernel replaces.
func TestConstantFastForwardBitIdentical(t *testing.T) {
	for _, e := range []float64{0.5, 1, 2.25, 0} {
		for _, n := range []int64{1, 7, 1000, 100000} {
			r, err := NewConstant(e)
			if err != nil {
				t.Fatal(err)
			}
			fast, _ := NewBattery(1000, 12.5)
			slow, _ := NewBattery(1000, 12.5)
			r.FastForward(fast, n, nil)
			for i := int64(0); i < n; i++ {
				slow.Recharge(r.Next(nil))
			}
			if snap(fast) != snap(slow) {
				t.Errorf("Constant(%g) n=%d: fast %+v != slow %+v", e, n, snap(fast), snap(slow))
			}
		}
	}
}

// TestPeriodicFastForwardBitIdentical drives a Periodic process through an
// arbitrary mix of per-slot and fast-forwarded segments and checks both
// battery totals and the internal phase stay bit-identical to a fully
// sequential twin.
func TestPeriodicFastForwardBitIdentical(t *testing.T) {
	fastProc, err := NewPeriodic(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	slowProc, _ := NewPeriodic(5, 10)
	fast, _ := NewBattery(200, 100)
	slow, _ := NewBattery(200, 100)
	segments := []int64{1, 3, 10, 9, 27, 100, 4, 555, 2}
	var total int64
	for _, n := range segments {
		fastProc.FastForward(fast, n, nil)
		for i := int64(0); i < n; i++ {
			slow.Recharge(slowProc.Next(nil))
		}
		total += n
		if snap(fast) != snap(slow) {
			t.Fatalf("after %d slots: fast %+v != slow %+v", total, snap(fast), snap(slow))
		}
		if fastProc.phase != slowProc.phase {
			t.Fatalf("after %d slots: phase %d != %d", total, fastProc.phase, slowProc.phase)
		}
	}
}

// TestBernoulliFastForwardDegenerate checks the q=0 and q=1 corners, which
// are deterministic and must match a sequential run exactly with no RNG
// consumption.
func TestBernoulliFastForwardDegenerate(t *testing.T) {
	for _, q := range []float64{0, 1} {
		r, err := NewBernoulli(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		fast, _ := NewBattery(500, 100)
		slow, _ := NewBattery(500, 100)
		probe := rng.New(7, 7)
		witness := rng.New(7, 7)
		r.FastForward(fast, 123, probe)
		for i := int64(0); i < 123; i++ {
			slow.Recharge(r.Next(witness))
		}
		if snap(fast) != snap(slow) {
			t.Errorf("q=%g: fast %+v != slow %+v", q, snap(fast), snap(slow))
		}
		if probe.Uint64() != witness.Uint64() {
			t.Errorf("q=%g: degenerate fast-forward consumed randomness", q)
		}
	}
}

// TestBernoulliFastForwardLaw checks the stochastic equivalence contract:
// across many independent runs the fast-forwarded received total matches
// the sequential process in mean, and never disagrees with the Binomial
// support.
func TestBernoulliFastForwardLaw(t *testing.T) {
	const (
		n     = 200
		runs  = 20000
		q, c  = 0.5, 1.0
		capac = 1 << 20 // large enough that nothing overflows
	)
	r, err := NewBernoulli(q, c)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(31, 13)
	var sum, sumSq float64
	for i := 0; i < runs; i++ {
		b, _ := NewBattery(capac, 0)
		r.FastForward(b, n, src)
		got := b.Received() / c
		if got < 0 || got > n || got != math.Trunc(got) {
			t.Fatalf("run %d: delivered count %v outside Binomial(%d, %g) support", i, got, n, q)
		}
		sum += got
		sumSq += got * got
	}
	mean := sum / runs
	wantMean := float64(n) * q
	sigma := math.Sqrt(wantMean * (1 - q) / runs)
	if math.Abs(mean-wantMean) > 5*sigma {
		t.Errorf("mean deliveries %v, want %v +- %v", mean, wantMean, 5*sigma)
	}
	variance := sumSq/runs - mean*mean
	wantVar := float64(n) * q * (1 - q)
	if variance < 0.9*wantVar || variance > 1.1*wantVar {
		t.Errorf("delivery variance %v, want ~%v", variance, wantVar)
	}
}

// TestBernoulliFastForwardOverflowAccounting forces the overflow path and
// checks conservation: received == level-gain + overflow + 0 consumed.
func TestBernoulliFastForwardOverflowAccounting(t *testing.T) {
	r, err := NewBernoulli(0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5, 5)
	b, _ := NewBattery(10, 4)
	r.FastForward(b, 1000, src)
	if b.Level() != 10 {
		t.Fatalf("battery should be full, level %v", b.Level())
	}
	gain := b.Level() - 4
	if diff := b.Received() - gain - b.OverflowLost(); math.Abs(diff) > 1e-9 {
		t.Fatalf("energy not conserved: received %v, gain %v, overflow %v", b.Received(), gain, b.OverflowLost())
	}
}

// TestPrepareFleetSharesTablePerQ: one fleet's Bernoulli processes with
// the same q read one binomial table whatever their amounts, processes
// with another q get their own, and a process reading a shared table
// fast-forwards exactly as one prepared alone.
func TestPrepareFleetSharesTablePerQ(t *testing.T) {
	bern := func(q, c float64) *Bernoulli {
		r, err := NewBernoulli(q, c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	constant, err := NewConstant(0.5)
	if err != nil {
		t.Fatal(err)
	}
	a, b, other, c := bern(0.1, 1), bern(0.1, 2), bern(0.3, 1), bern(0.1, 1)
	PrepareFleet([]FastForwarder{a, b, constant, other, c}, 64)
	if a.table == nil || b.table != a.table || c.table != a.table {
		t.Fatalf("q = 0.1 sensors read tables %p, %p, %p, want one", a.table, b.table, c.table)
	}
	if other.table == nil || other.table == a.table {
		t.Fatalf("the q = 0.3 sensor reads table %p, the q = 0.1 sensors %p", other.table, a.table)
	}
	alone := bern(0.1, 2)
	alone.PrepareFastForward(64)
	shared, own := rng.New(5, 5), rng.New(5, 5)
	for _, n := range []int64{1, 7, 64, 200} {
		got, _ := NewBattery(1<<20, 0)
		want, _ := NewBattery(1<<20, 0)
		b.FastForward(got, n, shared)
		alone.FastForward(want, n, own)
		if snap(got) != snap(want) {
			t.Errorf("n=%d: shared table %+v, own table %+v", n, snap(got), snap(want))
		}
	}
}
