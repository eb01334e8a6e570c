package energy

import (
	"math"
	"testing"

	"eventcap/internal/rng"
)

// TestFillMatchesNext checks that Fill reproduces Next bit for bit —
// amounts, stream consumption and process state — for each process,
// across chunk lengths that split the stream unevenly.
func TestFillMatchesNext(t *testing.T) {
	procs := []struct {
		name string
		mk   func() FastForwarder
	}{
		{"bernoulli-0.5", func() FastForwarder { r, _ := NewBernoulli(0.5, 1); return r }},
		{"bernoulli-0.1", func() FastForwarder { r, _ := NewBernoulli(0.1, 2.5); return r }},
		{"bernoulli-tiny", func() FastForwarder { r, _ := NewBernoulli(1e-300, 1); return r }},
		{"bernoulli-edge", func() FastForwarder { r, _ := NewBernoulli(1-0x1p-53, 1); return r }},
		{"bernoulli-0", func() FastForwarder { r, _ := NewBernoulli(0, 1); return r }},
		{"bernoulli-1", func() FastForwarder { r, _ := NewBernoulli(1, 3); return r }},
		{"periodic-5-10", func() FastForwarder { r, _ := NewPeriodic(5, 10); return r }},
		{"periodic-1-1", func() FastForwarder { r, _ := NewPeriodic(1, 1); return r }},
		{"constant-0.5", func() FastForwarder { r, _ := NewConstant(0.5); return r }},
	}
	for _, p := range procs {
		name, newProc := p.name, p.mk
		ref, fill := newProc(), newProc()
		refSrc, fillSrc := rng.New(7, 1), rng.New(7, 1)
		var buf [40]float64
		for chunk := 1; chunk <= len(buf); chunk += 3 {
			amts := buf[:chunk]
			fill.Fill(amts, fillSrc)
			for i, got := range amts {
				if want := ref.Next(refSrc); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: chunk %d slot %d: filled %v, Next %v", name, chunk, i, got, want)
				}
			}
		}
		if a, b := refSrc.Uint64(), fillSrc.Uint64(); a != b {
			t.Errorf("%s: Fill left the stream at a different point than Next", name)
		}
		if a, b := ref.Next(refSrc), fill.Next(fillSrc); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: Fill left the process in a different state than Next (%v vs %v)", name, b, a)
		}
	}
}

// TestBernoulliThreshold pins the integer form of the Bernoulli draw:
// src.Float64() < q exactly when src.Uint64()>>11 < thr, checked at the
// two draws on either side of the threshold.
func TestBernoulliThreshold(t *testing.T) {
	for _, q := range []float64{0x1p-53, 1e-300, 0.1, 0.3, 0.5, 0.75, 1 - 0x1p-53, math.Nextafter(0.5, 1)} {
		b, err := NewBernoulli(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []uint64{b.thr - 1, b.thr} {
			u := float64(k) / (1 << 53)
			if (u < q) != (k < b.thr) {
				t.Errorf("q=%v: draw %d reads u=%v, u<q=%v but k<thr=%v", q, k, u, u < q, k < b.thr)
			}
		}
	}
}

// TestRunAlwaysOnMatchesPerSlot checks the battery pass against the
// per-slot calls it replaces — Recharge every slot, and on the owner's
// slots Consume(δ1) when CanConsume(δ1+δ2) holds — bit for bit, over
// chained chunks, strides 1 to 4, and batteries from starved to full.
func TestRunAlwaysOnMatchesPerSlot(t *testing.T) {
	src := rng.New(3, 9)
	for trial := 0; trial < 400; trial++ {
		capacity := float64(1 + src.Intn(200))
		if trial%3 == 0 {
			capacity += src.Float64()
		}
		delta1 := float64(src.Intn(3))
		delta2 := float64(src.Intn(8))
		if delta1+delta2 == 0 {
			delta1 = 1
		}
		cost := delta1 + delta2
		fast, _ := NewBattery(capacity, src.Float64()*capacity)
		slow := *fast
		stride := 1 + src.Intn(4)
		own := src.Intn(stride)
		slowNext := own
		var fastAct, fastDen, slowAct, slowDen int64
		amts := make([]float64, 1+src.Intn(64))
		for chunk := 0; chunk < 4; chunk++ {
			for i := range amts {
				switch src.Intn(4) {
				case 0:
					amts[i] = 0
				case 1:
					amts[i] = src.Float64() * 3
				default:
					amts[i] = float64(src.Intn(6))
				}
			}
			a, d, next := fast.RunAlwaysOn(amts, own, stride, cost, delta1)
			fastAct, fastDen, own = fastAct+a, fastDen+d, next
			for i, amt := range amts {
				slow.Recharge(amt)
				if i == slowNext {
					slowNext += stride
					if slow.CanConsume(cost) {
						slow.Consume(delta1)
						slowAct++
					} else {
						slowDen++
					}
				}
			}
			slowNext -= len(amts)
		}
		if fastAct != slowAct || fastDen != slowDen {
			t.Fatalf("trial %d: %d activations / %d denials, per-slot %d / %d", trial, fastAct, fastDen, slowAct, slowDen)
		}
		for _, v := range [][2]float64{
			{fast.Level(), slow.Level()}, {fast.Received(), slow.Received()},
			{fast.OverflowLost(), slow.OverflowLost()}, {fast.Consumed(), slow.Consumed()},
		} {
			if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
				t.Fatalf("trial %d: battery %+v, per-slot %+v", trial, *fast, slow)
			}
		}
	}
}
