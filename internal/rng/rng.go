// Package rng provides a deterministic, splittable pseudo-random number
// generator for simulations.
//
// The generator is PCG-XSL-RR-128/64 (O'Neill, 2014): a 128-bit linear
// congruential core with a 64-bit output permutation. It offers 64-bit
// output, a guaranteed period of 2^128 per stream, and 2^127 independent
// streams selected by the increment. Unlike math/rand's global source it is
// safe to seed per component, so every sensor, recharge process, and event
// generator in a simulation draws from its own stream and results are
// reproducible regardless of goroutine interleaving or evaluation order.
//
// The zero value of Source is not valid; construct sources with New or
// Source.Split.
//
// # Stream layout
//
// Split consumes one draw from the parent, so the ORDER of Split calls
// is part of any byte-identity claim, not just the ids. The simulation
// engines (internal/sim) therefore share one canonical layout rooted at
// New(Config.Seed, 0x5eed), and every fast path reproduces it exactly:
//
//	Split(1)      event inter-arrivals (shared by the whole fleet)
//	Split(2)      activation decisions (shared; round-robin fleets
//	              draw one per awake slot regardless of N)
//	Split(100+s)  sensor s's recharge process, split in s order
//
// The compiled loop applies the same layout per replication after
// Reseed(Seed+r, 0x5eed). Adding a consumer means appending a new id
// range after the existing splits — reordering or interleaving the
// table above silently changes every seed's results.
package rng

import (
	"math"
	"math/bits"
)

const (
	// mulHi and mulLo are the 128-bit PCG default multiplier
	// 0x2360ed051fc65da44385df649fccf645 split into 64-bit halves.
	mulHi = 0x2360ed051fc65da4
	mulLo = 0x4385df649fccf645

	// incrementSalt is mixed into derived stream identifiers so that
	// Split(0) of stream k differs from stream k+1.
	incrementSalt = 0x9e3779b97f4a7c15
)

// Source is a deterministic pseudo-random source. It is NOT safe for
// concurrent use; give each goroutine its own Source via Split.
type Source struct {
	stateHi, stateLo uint64
	incHi, incLo     uint64
}

// New returns a Source seeded with seed on stream stream. Distinct
// (seed, stream) pairs yield statistically independent sequences.
func New(seed, stream uint64) *Source {
	s := &Source{}
	s.reseed(seed, stream)
	return s
}

// Reseed reinitializes s in place to the sequence New(seed, stream)
// produces, discarding any prior state. It exists for the compiled loop,
// which sweeps one Source value across a batch's replication roots
// without allocating per replication. Like New, every call site creates
// a fresh root stream, so the seedflow analyzer audits Reseed calls on
// simulation paths exactly as it audits New.
func (s *Source) Reseed(seed, stream uint64) {
	s.reseed(seed, stream)
}

func (s *Source) reseed(seed, stream uint64) {
	// The increment must be odd; fold the stream id into both halves.
	s.incHi = splitmix(stream)
	s.incLo = splitmix(stream^incrementSalt) | 1
	s.stateHi = 0
	s.stateLo = 0
	s.step()
	s.stateLo += splitmix(seed)
	s.stateHi += splitmix(seed ^ incrementSalt)
	s.step()
}

// splitmix is the SplitMix64 finalizer, used to spread seed entropy.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// step advances the 128-bit LCG state.
func (s *Source) step() {
	hi, lo := bits.Mul64(s.stateLo, mulLo)
	hi += s.stateHi*mulLo + s.stateLo*mulHi
	var carry uint64
	lo, carry = bits.Add64(lo, s.incLo, 0)
	hi, _ = bits.Add64(hi, s.incHi, carry)
	s.stateHi, s.stateLo = hi, lo
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 {
	s.step()
	// XSL-RR output function: xor-fold the 128-bit state, then rotate by
	// the top 6 bits.
	xored := s.stateHi ^ s.stateLo
	rot := uint(s.stateHi >> 58)
	return bits.RotateLeft64(xored, -int(rot))
}

// Split derives a new independent Source from s, identified by id. Calling
// Split with distinct ids yields distinct streams; the parent's own future
// output is unaffected except for consuming one draw per call.
func (s *Source) Split(id uint64) *Source {
	child := &Source{}
	s.SplitInto(child, id)
	return child
}

// SplitInto writes the child Split(id) would return into child instead of
// allocating, consuming one draw from s exactly as Split does. child may
// be any Source value, including a previously used one; its prior state is
// discarded.
func (s *Source) SplitInto(child *Source, id uint64) {
	child.reseed(s.Uint64(), splitmix(id)^incrementSalt)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p. Values of p outside [0, 1]
// are clamped.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// NormFloat64 returns a standard normal variate via the polar
// (Marsaglia) method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli(p) trials, drawn by inversion with a single
// uniform: P(G = g) = (1-p)^g p for g >= 0. It panics unless p is in
// (0, 1]. Batch samplers (dist.SampleBinomial) use it to jump between
// successes instead of drawing every trial.
func (s *Source) Geometric(p float64) int64 {
	if p <= 0 || p > 1 || math.IsNaN(p) {
		panic("rng: Geometric needs p in (0, 1]")
	}
	if p == 1 { // floateq:ok exact boundary constant short-circuits the log path
		return 0
	}
	// log1p(-Float64()) is in (-inf, 0]; the ratio floors to g >= 0.
	g := math.Floor(math.Log1p(-s.Float64()) / math.Log1p(-p))
	return int64(g)
}
