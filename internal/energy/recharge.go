package energy

import (
	"fmt"
	"math"

	"eventcap/internal/dist"
	"eventcap/internal/rng"
)

// Recharge produces the per-slot environmental energy e_t (paper Section
// III-A: random with mean e, exact law unknown to the policy). A Recharge
// may be stateful (e.g. Periodic); give each simulated sensor its own
// instance. Implementations are not safe for concurrent use.
type Recharge interface {
	// Next returns the energy harvested in the coming slot.
	Next(src *rng.Source) float64
	// Mean returns the long-run average rate e.
	Mean() float64
	// Name identifies the process, e.g. "Bernoulli(q=0.5,c=1)".
	Name() string
}

// FastForwarder is implemented by recharge processes that the simulation
// kernel can drive a stretch of slots at a time: FastForward applies a
// zero-activation sleep run to a battery without iterating the slots, and
// Fill draws the per-slot amounts of an always-on run (see
// Battery.RunAlwaysOn) or of one decided slot.
//
// The contract: after FastForward(b, n, src) the battery's externally
// visible totals (Level, Received, OverflowLost) must match n sequential
// Recharge(Next(src)) calls — bit-identically for deterministic processes
// (Constant, Periodic, and Bernoulli with q of 0 or 1), and equal in law
// for stochastic ones. Equality in law is sound during a sleep run because
// the level is monotone there: overflow depends only on the delivered
// total, never on where inside the run the deliveries land. Stochastic
// implementations may consume src differently than n Next calls would;
// each sensor owns a dedicated recharge stream, so no other stream shifts.
//
// Fill, unlike FastForward, is exact for every process: Fill(amts, src)
// writes the amounts the next len(amts) Next calls would return, bit for
// bit, and advances src and the process exactly as those calls would. No
// filled amount is negative.
type FastForwarder interface {
	Recharge
	// FastForward advances the process by n slots, recharging b.
	FastForward(b *Battery, n int64, src *rng.Source)
	// Fill advances the process by len(amts) slots, writing each slot's
	// amount into amts.
	Fill(amts []float64, src *rng.Source)
}

// FastForwardPreparer is optionally implemented by fast-forwardable
// processes that benefit from precomputation. The kernel prepares each
// compiled plan's processes once (PrepareFleet) with the largest
// sleep-run length it expects to batch, before any FastForward call; the
// hint only affects speed, never the sampled law.
type FastForwardPreparer interface {
	FastForwarder
	PrepareFastForward(maxN int)
}

// Bernoulli recharges c units with probability q each slot — the paper's
// default recharge model (Fig. 3 "Poisson" curve and all of Figs. 4–6).
type Bernoulli struct {
	q, c float64
	// thr is ⌈q·2^53⌉: src.Float64() < q exactly when src.Uint64()>>11 <
	// thr, because Float64 returns k/2^53 and scaling by 2^53 is exact.
	thr   uint64
	name  string
	table *dist.BinomialTable
}

var _ Recharge = (*Bernoulli)(nil)

// NewBernoulli constructs the process with per-slot probability q in
// [0, 1] and amount c >= 0.
func NewBernoulli(q, c float64) (*Bernoulli, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return nil, fmt.Errorf("energy: Bernoulli q must be in [0,1], got %g", q)
	}
	if c < 0 || math.IsNaN(c) {
		return nil, fmt.Errorf("energy: Bernoulli c must be >= 0, got %g", c)
	}
	return &Bernoulli{
		q:    q,
		c:    c,
		thr:  uint64(math.Ceil(q * (1 << 53))),
		name: fmt.Sprintf("Bernoulli(q=%g,c=%g)", q, c),
	}, nil
}

// Next implements Recharge.
func (b *Bernoulli) Next(src *rng.Source) float64 {
	if src.Bernoulli(b.q) {
		return b.c
	}
	return 0
}

// Fill implements FastForwarder: src.Bernoulli(q) per slot, which draws
// nothing at q <= 0 or q >= 1. Between those it compares the draw with thr
// and selects c or +0 by a mask instead of a branch, which would
// mispredict on about every other slot at q = 1/2.
func (b *Bernoulli) Fill(amts []float64, src *rng.Source) {
	switch {
	case b.q <= 0:
		clear(amts)
	case b.q >= 1:
		for i := range amts {
			amts[i] = b.c
		}
	default:
		c := math.Float64bits(b.c)
		for i := range amts {
			// Both operands are at most 2^53, so k − thr wraps to a value
			// with its sign bit set exactly when k < thr: hit is all ones
			// then and zero otherwise.
			hit := uint64(int64(src.Uint64()>>11-b.thr) >> 63)
			amts[i] = math.Float64frombits(c & hit)
		}
	}
}

// Mean implements Recharge.
func (b *Bernoulli) Mean() float64 { return b.q * b.c }

// Name implements Recharge.
func (b *Bernoulli) Name() string { return b.name }

var _ FastForwardPreparer = (*Bernoulli)(nil)

// PrepareFastForward implements FastForwardPreparer: it precomputes
// Binomial CDF tables so each in-range FastForward costs one uniform and
// a binary search instead of per-gap logarithms.
func (b *Bernoulli) PrepareFastForward(maxN int) {
	if b.table == nil || b.table.MaxN() < maxN {
		b.table = dist.NewBinomialTable(b.q, maxN)
	}
}

// PrepareFleet prepares the processes of one fleet, one per sensor, as
// PrepareFastForward(maxN) would, except that Bernoulli processes with
// the same q (bit for bit) read one binomial table: FastForward only
// reads it, so each process keeps its own state and draws from its own
// stream exactly as with a table of its own. The tables live as long as
// the processes that read them.
func PrepareFleet(rechs []FastForwarder, maxN int) {
	var tables []*dist.BinomialTable
next:
	for _, r := range rechs {
		b, ok := r.(*Bernoulli)
		if !ok {
			if prep, ok := r.(FastForwardPreparer); ok {
				prep.PrepareFastForward(maxN)
			}
			continue
		}
		for _, t := range tables {
			if math.Float64bits(t.P()) == math.Float64bits(b.q) && t.MaxN() >= maxN {
				b.table = t
				continue next
			}
		}
		b.PrepareFastForward(maxN)
		tables = append(tables, b.table)
	}
}

// FastForward implements FastForwarder. The number of deliveries across n
// independent Bernoulli(q) slots is exactly Binomial(n, q), so one batch
// draw replaces n per-slot draws; degenerate q needs no randomness at all.
func (b *Bernoulli) FastForward(bat *Battery, n int64, src *rng.Source) {
	if n <= 0 {
		return
	}
	var m int64
	switch {
	case b.q <= 0:
		m = 0
	case b.q >= 1:
		m = n
	case b.table != nil:
		m = b.table.Sample(src, n)
	default:
		m = dist.SampleBinomial(src, n, b.q)
	}
	if m == 0 || b.c <= 0 {
		return
	}
	if !bat.RechargeN(b.c, m) {
		for i := int64(0); i < m; i++ {
			bat.Recharge(b.c)
		}
	}
}

// Periodic recharges amount units every period slots (the paper's
// "Periodic" model: 5 units every 10 slots). It is stateful: the phase
// advances on every Next call.
type Periodic struct {
	amount float64
	period int
	phase  int
	name   string
}

var _ Recharge = (*Periodic)(nil)

// NewPeriodic constructs the process delivering amount energy once every
// period slots (on the last slot of each period).
func NewPeriodic(amount float64, period int) (*Periodic, error) {
	if amount < 0 || math.IsNaN(amount) {
		return nil, fmt.Errorf("energy: Periodic amount must be >= 0, got %g", amount)
	}
	if period < 1 {
		return nil, fmt.Errorf("energy: Periodic period must be >= 1, got %d", period)
	}
	return &Periodic{
		amount: amount,
		period: period,
		name:   fmt.Sprintf("Periodic(%g per %d)", amount, period),
	}, nil
}

// Next implements Recharge.
func (p *Periodic) Next(*rng.Source) float64 {
	p.phase++
	if p.phase >= p.period {
		p.phase = 0
		return p.amount
	}
	return 0
}

// Fill implements FastForwarder: Next, slot by slot.
func (p *Periodic) Fill(amts []float64, _ *rng.Source) {
	for i := range amts {
		p.phase++
		amts[i] = 0
		if p.phase >= p.period {
			p.phase = 0
			amts[i] = p.amount
		}
	}
}

// Mean implements Recharge.
func (p *Periodic) Mean() float64 { return p.amount / float64(p.period) }

// Name implements Recharge.
func (p *Periodic) Name() string { return p.name }

// Reset restores the initial phase, for reuse across simulation runs.
func (p *Periodic) Reset() { p.phase = 0 }

var _ FastForwarder = (*Periodic)(nil)

// FastForward implements FastForwarder. Across n slots starting at the
// current phase the process delivers floor((phase+n)/period) times; the
// intermediate zero-amount slots are no-ops on the battery, so delivering
// the lump sums back-to-back reproduces the sequential run bit for bit.
func (p *Periodic) FastForward(b *Battery, n int64, _ *rng.Source) {
	if n <= 0 {
		return
	}
	advanced := int64(p.phase) + n
	deliveries := advanced / int64(p.period)
	p.phase = int(advanced % int64(p.period))
	if !b.RechargeN(p.amount, deliveries) {
		for i := int64(0); i < deliveries; i++ {
			b.Recharge(p.amount)
		}
	}
}

// Constant recharges the same amount every slot — the paper's "Uniform"
// model (0.5 units per slot).
type Constant struct {
	e    float64
	name string
}

var _ Recharge = (*Constant)(nil)

// NewConstant constructs the deterministic per-slot recharge of e >= 0.
func NewConstant(e float64) (*Constant, error) {
	if e < 0 || math.IsNaN(e) {
		return nil, fmt.Errorf("energy: Constant rate must be >= 0, got %g", e)
	}
	return &Constant{e: e, name: fmt.Sprintf("Constant(%g)", e)}, nil
}

// Next implements Recharge.
func (c *Constant) Next(*rng.Source) float64 { return c.e }

// Fill implements FastForwarder.
func (c *Constant) Fill(amts []float64, _ *rng.Source) {
	for i := range amts {
		amts[i] = c.e
	}
}

// Mean implements Recharge.
func (c *Constant) Mean() float64 { return c.e }

// Name implements Recharge.
func (c *Constant) Name() string { return c.name }

var _ FastForwarder = (*Constant)(nil)

// FastForward implements FastForwarder.
func (c *Constant) FastForward(b *Battery, n int64, _ *rng.Source) {
	if n <= 0 {
		return
	}
	if !b.RechargeN(c.e, n) {
		for i := int64(0); i < n; i++ {
			b.Recharge(c.e)
		}
	}
}

// ClippedGaussian recharges max(0, N(mu, sigma²)) per slot — an extension
// model for solar-like harvesting noise. Mean accounts for the clipping:
// E[max(0,X)] = mu·Φ(mu/σ) + σ·φ(mu/σ).
type ClippedGaussian struct {
	mu, sigma float64
	mean      float64
	name      string
}

var _ Recharge = (*ClippedGaussian)(nil)

// NewClippedGaussian constructs the process. sigma must be >= 0.
func NewClippedGaussian(mu, sigma float64) (*ClippedGaussian, error) {
	if sigma < 0 || math.IsNaN(sigma) || math.IsNaN(mu) {
		return nil, fmt.Errorf("energy: invalid ClippedGaussian(%g, %g)", mu, sigma)
	}
	g := &ClippedGaussian{
		mu:    mu,
		sigma: sigma,
		name:  fmt.Sprintf("ClippedGaussian(mu=%g,sigma=%g)", mu, sigma),
	}
	if sigma == 0 {
		g.mean = math.Max(0, mu)
	} else {
		z := mu / sigma
		phi := math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
		capPhi := 0.5 * (1 + math.Erf(z/math.Sqrt2))
		g.mean = mu*capPhi + sigma*phi
	}
	return g, nil
}

// Next implements Recharge.
func (g *ClippedGaussian) Next(src *rng.Source) float64 {
	v := g.mu + g.sigma*src.NormFloat64()
	if v < 0 {
		return 0
	}
	return v
}

// Mean implements Recharge.
func (g *ClippedGaussian) Mean() float64 { return g.mean }

// Name implements Recharge.
func (g *ClippedGaussian) Name() string { return g.name }

// OnOff is a bursty two-state (Gilbert) recharge process: in the on state
// it delivers amount per slot, in the off state nothing; state flips with
// the given probabilities. It models intermittent sources (cloud cover,
// duty-cycled RF chargers) and stresses the battery's burst absorption.
type OnOff struct {
	amount           float64
	pOnToOff, pOffOn float64
	on               bool
	name             string
}

var _ Recharge = (*OnOff)(nil)

// NewOnOff constructs the process starting in the on state.
func NewOnOff(amount, pOnToOff, pOffToOn float64) (*OnOff, error) {
	if amount < 0 || math.IsNaN(amount) {
		return nil, fmt.Errorf("energy: OnOff amount must be >= 0, got %g", amount)
	}
	for _, p := range []float64{pOnToOff, pOffToOn} {
		if p <= 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("energy: OnOff switch probabilities must be in (0,1], got (%g, %g)", pOnToOff, pOffToOn)
		}
	}
	return &OnOff{
		amount:   amount,
		pOnToOff: pOnToOff,
		pOffOn:   pOffToOn,
		on:       true,
		name:     fmt.Sprintf("OnOff(%g, on->off=%g, off->on=%g)", amount, pOnToOff, pOffToOn),
	}, nil
}

// Next implements Recharge.
func (o *OnOff) Next(src *rng.Source) float64 {
	var out float64
	if o.on {
		out = o.amount
		if src.Bernoulli(o.pOnToOff) {
			o.on = false
		}
	} else if src.Bernoulli(o.pOffOn) {
		o.on = true
	}
	return out
}

// Mean implements Recharge: amount times the stationary on-probability.
func (o *OnOff) Mean() float64 {
	return o.amount * o.pOffOn / (o.pOnToOff + o.pOffOn)
}

// Name implements Recharge.
func (o *OnOff) Name() string { return o.name }
