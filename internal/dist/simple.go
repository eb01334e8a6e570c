package dist

import (
	"fmt"
	"math"

	"eventcap/internal/rng"
)

// Geometric is the memoryless slotted distribution: α_i = p(1−p)^(i−1).
// It is the discrete analog of the Poisson arrival process the paper
// singles out as the case with constant hazard, where no activation
// policy can beat a fixed-rate one ("an important exception is the
// Poisson process, whose β_i's are constant", Section IV-B2).
type Geometric struct {
	p    float64
	name string
}

var _ Interarrival = (*Geometric)(nil)

// NewGeometric constructs a geometric distribution with per-slot success
// probability p in (0, 1].
func NewGeometric(p float64) (*Geometric, error) {
	if !(p > 0) || p > 1 {
		return nil, fmt.Errorf("dist: geometric probability must be in (0,1], got %g", p)
	}
	return &Geometric{p: p, name: fmt.Sprintf("Geometric(%g)", p)}, nil
}

// PMF returns α_i.
func (g *Geometric) PMF(i int) float64 {
	if i < 1 {
		return 0
	}
	return g.p * math.Pow(1-g.p, float64(i-1))
}

// CDF returns F(i) = 1 − (1−p)^i.
func (g *Geometric) CDF(i int) float64 {
	if i < 1 {
		return 0
	}
	return 1 - math.Pow(1-g.p, float64(i))
}

// Hazard returns the constant hazard p.
func (g *Geometric) Hazard(i int) float64 {
	if i < 1 {
		return 0
	}
	return g.p
}

// Mean returns 1/p.
func (g *Geometric) Mean() float64 { return 1 / g.p }

// Sample draws by inversion.
func (g *Geometric) Sample(src *rng.Source) int {
	if g.p == 1 { // floateq:ok exact boundary constant: a sure success needs no draw
		return 1
	}
	u := src.Float64()
	x := math.Log1p(-u) / math.Log(1-g.p)
	i := int(math.Ceil(x))
	if i < 1 {
		i = 1
	}
	return i
}

// Name implements Interarrival.
func (g *Geometric) Name() string { return g.name }

// CacheKey implements Keyed; the name embeds the parameter at
// round-trip precision.
func (g *Geometric) CacheKey() string { return g.name }

// Deterministic is the distribution with all mass at a single slot count —
// a strictly periodic event process, the extreme of renewal memory.
type Deterministic struct {
	d    int
	name string
}

var _ Interarrival = (*Deterministic)(nil)

// NewDeterministic constructs the point distribution at d >= 1 slots.
func NewDeterministic(d int) (*Deterministic, error) {
	if d < 1 {
		return nil, fmt.Errorf("dist: deterministic interval must be >= 1, got %d", d)
	}
	return &Deterministic{d: d, name: fmt.Sprintf("Deterministic(%d)", d)}, nil
}

// PMF implements Interarrival.
func (d *Deterministic) PMF(i int) float64 {
	if i == d.d {
		return 1
	}
	return 0
}

// CDF implements Interarrival.
func (d *Deterministic) CDF(i int) float64 {
	if i >= d.d {
		return 1
	}
	return 0
}

// Hazard implements Interarrival.
func (d *Deterministic) Hazard(i int) float64 {
	if i == d.d {
		return 1
	}
	return 0
}

// Mean implements Interarrival.
func (d *Deterministic) Mean() float64 { return float64(d.d) }

// Sample implements Interarrival.
func (d *Deterministic) Sample(*rng.Source) int { return d.d }

// Name implements Interarrival.
func (d *Deterministic) Name() string { return d.name }

// CacheKey implements Keyed; the name embeds the slot count.
func (d *Deterministic) CacheKey() string { return d.name }

// UniformInt is uniform on the integer slots {lo, ..., hi}.
type UniformInt struct {
	lo, hi int
	name   string
}

var _ Interarrival = (*UniformInt)(nil)

// NewUniformInt constructs the uniform distribution on [lo, hi] slots,
// requiring 1 <= lo <= hi.
func NewUniformInt(lo, hi int) (*UniformInt, error) {
	if lo < 1 || hi < lo {
		return nil, fmt.Errorf("dist: invalid uniform range [%d, %d]", lo, hi)
	}
	return &UniformInt{lo: lo, hi: hi, name: fmt.Sprintf("UniformInt(%d,%d)", lo, hi)}, nil
}

func (u *UniformInt) span() float64 { return float64(u.hi - u.lo + 1) }

// PMF implements Interarrival.
func (u *UniformInt) PMF(i int) float64 {
	if i < u.lo || i > u.hi {
		return 0
	}
	return 1 / u.span()
}

// CDF implements Interarrival.
func (u *UniformInt) CDF(i int) float64 {
	switch {
	case i < u.lo:
		return 0
	case i >= u.hi:
		return 1
	default:
		return float64(i-u.lo+1) / u.span()
	}
}

// Hazard implements Interarrival.
func (u *UniformInt) Hazard(i int) float64 { return hazardFromCDF(u, i) }

// Mean implements Interarrival.
func (u *UniformInt) Mean() float64 { return float64(u.lo+u.hi) / 2 }

// Sample implements Interarrival.
func (u *UniformInt) Sample(src *rng.Source) int {
	return u.lo + src.Intn(u.hi-u.lo+1)
}

// Name implements Interarrival.
func (u *UniformInt) Name() string { return u.name }

// CacheKey implements Keyed; the name embeds both bounds.
func (u *UniformInt) CacheKey() string { return u.name }
