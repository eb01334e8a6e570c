package energy

import (
	"math"
	"testing"
	"testing/quick"

	"eventcap/internal/rng"
)

func TestBatteryBasics(t *testing.T) {
	b, err := NewBattery(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Level() != 4 || b.Capacity() != 10 {
		t.Fatal("constructor state wrong")
	}
	if !b.Consume(3) {
		t.Fatal("consume within level failed")
	}
	if b.Level() != 1 {
		t.Fatalf("level %v, want 1", b.Level())
	}
	if b.Consume(2) {
		t.Fatal("consume beyond level succeeded")
	}
	if b.Denied() != 1 {
		t.Fatalf("denied %d, want 1", b.Denied())
	}
	b.Recharge(100)
	if b.Level() != 10 {
		t.Fatalf("level %v, want cap 10", b.Level())
	}
	if math.Abs(b.OverflowLost()-91) > 1e-12 {
		t.Fatalf("overflow %v, want 91", b.OverflowLost())
	}
	if b.Consumed() != 3 || b.Received() != 100 {
		t.Fatal("accounting wrong")
	}
}

func TestBatterySpanProbe(t *testing.T) {
	b, err := NewBattery(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Recharge(2)
	probe := b.BeginSpan()
	if got := b.EndSpan(probe); got != 0 {
		t.Fatalf("empty span delivered %v, want 0", got)
	}
	b.Recharge(3)
	if !b.RechargeN(2, 4) {
		t.Fatal("RechargeN fell back")
	}
	// The probe counts offered energy, so the 3 units lost to overflow
	// (2 + 3 + 8 against capacity 10) still count.
	if got := b.EndSpan(probe); got != 11 {
		t.Fatalf("span delivered %v, want 11", got)
	}
	// Consumption does not disturb the recharge accounting.
	b.Consume(5)
	if got := b.EndSpan(probe); got != 11 {
		t.Fatalf("span delivered after consume %v, want 11", got)
	}
}

func TestBatteryClipsInitial(t *testing.T) {
	b, err := NewBattery(5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if b.Level() != 5 {
		t.Fatalf("initial level %v, want 5", b.Level())
	}
	b2, err := NewBattery(5, -3)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Level() != 0 {
		t.Fatalf("initial level %v, want 0", b2.Level())
	}
}

func TestBatteryRejectsBadCapacity(t *testing.T) {
	for _, capVal := range []float64{0, -1, math.NaN()} {
		if _, err := NewBattery(capVal, 0); err == nil {
			t.Errorf("NewBattery(%v) succeeded", capVal)
		}
	}
}

func TestBatteryIgnoresNegativeFlows(t *testing.T) {
	b, _ := NewBattery(10, 5)
	b.Recharge(-3)
	if b.Level() != 5 {
		t.Fatal("negative recharge changed level")
	}
	if b.Consume(-1) {
		t.Fatal("negative consume succeeded")
	}
}

func TestBatteryInvariantProperty(t *testing.T) {
	// Under arbitrary interleavings, 0 <= level <= capacity and the
	// conservation identity holds: received = level-initial + consumed + overflow.
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed, 0)
		capacity := 1 + src.Float64()*100
		initial := src.Float64() * capacity
		b, err := NewBattery(capacity, initial)
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			if src.Bernoulli(0.5) {
				b.Recharge(src.Float64() * 10)
			} else {
				b.Consume(src.Float64() * 10)
			}
			if b.Level() < 0 || b.Level() > capacity+1e-9 {
				return false
			}
		}
		balance := initial + b.Received() - b.Consumed() - b.OverflowLost()
		return math.Abs(balance-b.Level()) < 1e-6
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliRecharge(t *testing.T) {
	r, err := NewBernoulli(0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mean() != 1 {
		t.Fatalf("mean %v, want 1", r.Mean())
	}
	src := rng.New(5, 0)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Next(src)
		if v != 0 && v != 2 {
			t.Fatalf("unexpected recharge %v", v)
		}
		sum += v
	}
	if math.Abs(sum/n-1) > 0.02 {
		t.Fatalf("empirical mean %v, want 1", sum/n)
	}
}

func TestBernoulliRejectsBadParams(t *testing.T) {
	for _, qc := range [][2]float64{{-0.1, 1}, {1.1, 1}, {0.5, -1}, {math.NaN(), 1}, {0.5, math.NaN()}} {
		if _, err := NewBernoulli(qc[0], qc[1]); err == nil {
			t.Errorf("NewBernoulli(%v, %v) succeeded", qc[0], qc[1])
		}
	}
}

func TestPeriodicRecharge(t *testing.T) {
	r, err := NewPeriodic(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mean() != 0.5 {
		t.Fatalf("mean %v, want 0.5", r.Mean())
	}
	var total float64
	deliveries := 0
	for i := 0; i < 100; i++ {
		v := r.Next(nil)
		total += v
		if v > 0 {
			deliveries++
		}
	}
	if total != 50 || deliveries != 10 {
		t.Fatalf("100 slots delivered %v over %d bursts, want 50 over 10", total, deliveries)
	}
	r.Reset()
	first := -1
	for i := 0; i < 10; i++ {
		if r.Next(nil) > 0 {
			first = i
			break
		}
	}
	if first != 9 {
		t.Fatalf("after reset first delivery at slot %d, want 9", first)
	}
}

func TestPeriodicRejectsBadParams(t *testing.T) {
	if _, err := NewPeriodic(-1, 10); err == nil {
		t.Fatal("negative amount accepted")
	}
	if _, err := NewPeriodic(1, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestConstantRecharge(t *testing.T) {
	r, err := NewConstant(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mean() != 0.5 || r.Next(nil) != 0.5 {
		t.Fatal("constant recharge wrong")
	}
	if _, err := NewConstant(-1); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestClippedGaussianMean(t *testing.T) {
	for _, tc := range []struct{ mu, sigma float64 }{{1, 0.3}, {0.5, 1}, {0, 1}, {2, 0}} {
		r, err := NewClippedGaussian(tc.mu, tc.sigma)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(17, 0)
		const n = 400000
		var sum float64
		for i := 0; i < n; i++ {
			v := r.Next(src)
			if v < 0 {
				t.Fatal("negative recharge from clipped gaussian")
			}
			sum += v
		}
		if got := sum / n; math.Abs(got-r.Mean()) > 0.01*(1+r.Mean()) {
			t.Errorf("mu=%v sigma=%v: empirical %v vs analytic %v", tc.mu, tc.sigma, got, r.Mean())
		}
	}
}

func TestClippedGaussianRejectsBadParams(t *testing.T) {
	if _, err := NewClippedGaussian(1, -1); err == nil {
		t.Fatal("negative sigma accepted")
	}
	if _, err := NewClippedGaussian(math.NaN(), 1); err == nil {
		t.Fatal("NaN mu accepted")
	}
}

func TestOnOffMean(t *testing.T) {
	r, err := NewOnOff(2, 0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 0.3 / 0.4
	if math.Abs(r.Mean()-want) > 1e-12 {
		t.Fatalf("mean %v, want %v", r.Mean(), want)
	}
	src := rng.New(23, 0)
	const n = 500000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Next(src)
	}
	if got := sum / n; math.Abs(got-want) > 0.02*want {
		t.Fatalf("empirical mean %v, want %v", got, want)
	}
}

func TestOnOffRejectsBadParams(t *testing.T) {
	for _, tc := range [][3]float64{{-1, 0.5, 0.5}, {1, 0, 0.5}, {1, 0.5, 1.5}} {
		if _, err := NewOnOff(tc[0], tc[1], tc[2]); err == nil {
			t.Errorf("NewOnOff(%v) succeeded", tc)
		}
	}
}
