package energy

import (
	"testing"
)

// TestBatteryReset checks that Reset restores a used battery to the state
// a fresh construction would produce, including clipping of the initial
// level and clearing of every accumulator.
func TestBatteryReset(t *testing.T) {
	for _, initial := range []float64{-3, 0, 12.5, 50, 120} {
		used, err := NewBattery(100, 50)
		if err != nil {
			t.Fatal(err)
		}
		used.Recharge(70)
		used.Consume(30)
		used.Consume(1000) // denial
		used.Reset(initial)

		fresh, err := NewBattery(100, initial)
		if err != nil {
			t.Fatal(err)
		}
		if used.Level() != fresh.Level() || used.Capacity() != fresh.Capacity() ||
			used.OverflowLost() != fresh.OverflowLost() || used.Denied() != fresh.Denied() ||
			used.Consumed() != fresh.Consumed() || used.Received() != fresh.Received() {
			t.Errorf("Reset(%g): %+v differs from fresh battery %+v", initial, used, fresh)
		}
	}
}
