// Package energy models the rechargeable-sensor energy subsystem: a
// finite energy bucket ("battery") of capacity K and the stochastic
// recharge processes that refill it (paper Section III-A).
//
// Levels are float64 so that fractional recharge rates such as the
// paper's Uniform 0.5 units/slot are represented exactly enough; all
// consumption amounts in the paper (δ1 = 1, δ2 = 6) are integral.
package energy

import (
	"fmt"
	"math"
)

// Battery is the sensor's energy bucket. The zero value is unusable;
// construct with NewBattery. Not safe for concurrent use: each simulated
// sensor owns its battery.
type Battery struct {
	level    float64
	capacity float64

	overflowLost float64
	denied       int64
	consumed     float64
	received     float64
}

// NewBattery creates a battery with the given capacity and initial level.
// The initial level is clipped into [0, capacity], a zero level stored as
// +0. Capacity must be positive.
func NewBattery(capacity, initial float64) (*Battery, error) {
	if !(capacity > 0) {
		return nil, fmt.Errorf("energy: battery capacity must be positive, got %g", capacity)
	}
	if initial <= 0 {
		initial = 0
	}
	if initial > capacity {
		initial = capacity
	}
	return &Battery{level: initial, capacity: capacity}, nil
}

// Reset restores the battery to a freshly constructed state with the same
// capacity and the given initial level (clipped as NewBattery clips it),
// clearing every accumulator. Batch engines sweep one Battery value across
// many replications with it instead of allocating per replication.
func (b *Battery) Reset(initial float64) {
	if initial <= 0 {
		initial = 0
	}
	if initial > b.capacity {
		initial = b.capacity
	}
	b.level = initial
	b.overflowLost = 0
	b.denied = 0
	b.consumed = 0
	b.received = 0
}

// Level returns the current energy level.
func (b *Battery) Level() float64 { return b.level }

// Capacity returns K.
func (b *Battery) Capacity() float64 { return b.capacity }

// Recharge adds amount (>= 0), clipping at capacity. Energy lost to
// overflow is accounted in OverflowLost. Negative amounts are ignored.
func (b *Battery) Recharge(amount float64) {
	if amount <= 0 {
		return
	}
	b.received += amount
	b.level += amount
	if b.level > b.capacity {
		b.overflowLost += b.level - b.capacity
		b.level = b.capacity
	}
}

// CanConsume reports whether the battery holds at least amount.
func (b *Battery) CanConsume(amount float64) bool {
	return b.level >= amount-1e-12
}

// Consume withdraws amount if available and returns true; otherwise it
// leaves the level unchanged, records a denial, and returns false.
func (b *Battery) Consume(amount float64) bool {
	if amount < 0 {
		return false
	}
	if !b.CanConsume(amount) {
		b.denied++
		return false
	}
	b.level -= amount
	if b.level < 0 {
		b.level = 0
	}
	b.consumed += amount
	return true
}

// RunAlwaysOn applies one always-on stretch to the battery: amts[i] is
// slot i's recharge, applied as Recharge(amts[i]) would, and on slots
// own, own+stride, … the battery's owner decides with activation
// probability one, exactly as a decided slot without an event does: when
// CanConsume(cost) holds it spends Consume(delta1) and the slot counts as
// an activation, otherwise as a denial. It returns both counts and the
// owner's next slot as an offset from the end of amts, the own of a
// following chunk of the same stretch. No amount may be negative;
// FastForwarder.Fill's never are.
//
// The level and the totals stay in locals for the whole stretch, and
// every float operation is one Recharge, CanConsume and Consume perform,
// in the same order, so the result is bit-identical to the per-slot
// calls:
//   - Recharge skips amounts <= 0, but this pass adds every amount
//     without a branch (on a Bernoulli(1/2) stream the branch would
//     mispredict on every other slot). Adding a zero is exact: the level
//     and the received total are never −0 (NewBattery and Reset store
//     +0 for a zero level, and no later operation yields −0), so x + ±0
//     is x, and a level that did not exceed the capacity still does not.
//   - Consume's own check always passes: callers guarantee
//     0 <= delta1 <= cost (cost = δ1 + δ2 with δ2 >= 0), so a level that
//     clears cost − 1e-12 clears delta1 − 1e-12 too.
func (b *Battery) RunAlwaysOn(amts []float64, own, stride int, cost, delta1 float64) (activations, denied int64, nextOwn int) {
	level, capacity := b.level, b.capacity
	received, lost, consumed := b.received, b.overflowLost, b.consumed
	gate := cost - 1e-12
	next := own
	for i, a := range amts {
		received += a
		level += a
		if level > capacity {
			lost += level - capacity
			level = capacity
		}
		if i == next {
			next += stride
			if level >= gate {
				level -= delta1
				if level < 0 {
					level = 0
				}
				consumed += delta1
				activations++
			} else {
				denied++
			}
		}
	}
	b.level, b.received, b.overflowLost, b.consumed = level, received, lost, consumed
	return activations, denied, next - len(amts)
}

// rechargeGrid is the dyadic grid (multiples of 2^-20) on which RechargeN
// can prove that its closed form reproduces sequential rounding exactly,
// and gridMax bounds every intermediate magnitude so scaled integers stay
// far below 2^53 (sums of two in-range values stay below 2^52 scaled).
const (
	rechargeGrid = 1 << 20
	gridMax      = 1 << 31
)

// onRechargeGrid reports whether v is a nonnegative multiple of 2^-20 no
// larger than gridMax. Sums and differences of such values below gridMax
// are exact in float64, which is what makes RechargeN's closed form
// bit-identical to a sequential loop.
func onRechargeGrid(v float64) bool {
	if v < 0 || v > gridMax || math.IsNaN(v) {
		return false
	}
	s := v * rechargeGrid
	// floateq:ok exactness proof: scaling by a power of two is lossless,
	// so integrality of s decides grid membership with no tolerance.
	return s == math.Trunc(s)
}

// RechargeN applies n consecutive Recharge(amount) calls in O(1). It
// returns false — leaving the battery untouched — when it cannot prove the
// closed form rounds identically to the sequential loop (off-grid values
// or magnitudes near the exactness bound); callers fall back to iterating.
//
// The closed form relies on recharge being monotone: during a pure
// recharge run the level only rises, so the total overflow depends only on
// the delivered total, never on the ordering of deliveries:
// overflow = max(0, level + n·amount − capacity).
func (b *Battery) RechargeN(amount float64, n int64) bool {
	if n <= 0 || amount <= 0 {
		return true // Recharge ignores non-positive amounts
	}
	total := amount * float64(n)
	if float64(n) > gridMax ||
		!onRechargeGrid(amount) || !onRechargeGrid(b.level) ||
		!onRechargeGrid(b.capacity) || !onRechargeGrid(b.received) ||
		!onRechargeGrid(b.overflowLost) ||
		!onRechargeGrid(total) || b.received+total > gridMax ||
		b.level+total > gridMax || b.overflowLost+total > gridMax {
		return false
	}
	b.received += total
	headroom := b.capacity - b.level
	if total <= headroom {
		b.level += total
		return true
	}
	b.overflowLost += total - headroom
	b.level = b.capacity
	return true
}

// OverflowLost returns the total energy discarded because the bucket was
// full — the "burst absorption" loss that shrinks as K grows (Remark 2).
func (b *Battery) OverflowLost() float64 { return b.overflowLost }

// Denied returns how many Consume calls failed for lack of energy.
func (b *Battery) Denied() int64 { return b.denied }

// Consumed returns total energy successfully withdrawn.
func (b *Battery) Consumed() float64 { return b.consumed }

// Received returns total recharge energy offered (including overflow).
func (b *Battery) Received() float64 { return b.received }

// SpanProbe marks a point in the battery's recharge history so the
// energy delivered across a fast-forwarded sleep run can be reported
// (the trace subsystem's span records) without the recharge process
// surfacing its individual draws.
type SpanProbe struct {
	received float64
}

// BeginSpan opens a probe at the current recharge total.
func (b *Battery) BeginSpan() SpanProbe { return SpanProbe{received: b.received} }

// EndSpan returns the recharge energy offered (including overflow)
// since the probe was opened.
func (b *Battery) EndSpan(p SpanProbe) float64 { return b.received - p.received }
