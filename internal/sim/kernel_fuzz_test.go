package sim

import (
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"testing"

	"eventcap/internal/core"
	"eventcap/internal/dist"
	"eventcap/internal/energy"
	"eventcap/internal/trace"
)

// Kernel fuzz prefix encoding: a sequence of segments, each a tag byte
// followed by its payload. Tag%3 == 0 is a run of 1+b zeros and tag%3 ==
// 1 a run of 1+b ones (b the next byte), so long runs of either take a
// few segments; tag%3 == 2 is one fraction, the next 8 bytes as
// little-endian float64 bits (any value outside (0, 1) reads as 1/2).
const (
	fuzzSegZeros = iota
	fuzzSegOnes
	fuzzSegFrac
	// fuzzMaxPrefix caps a decoded prefix, in states.
	fuzzMaxPrefix = 1024
)

// decodeFuzzPrefix decodes an activation prefix (see the encoding above).
// A truncated segment ends the prefix.
func decodeFuzzPrefix(b []byte) []float64 {
	var prefix []float64
	for len(b) >= 2 && len(prefix) < fuzzMaxPrefix {
		tag := b[0] % 3
		if tag == fuzzSegFrac {
			if len(b) < 9 {
				break
			}
			p := math.Float64frombits(binary.LittleEndian.Uint64(b[1:9]))
			if !(p > 0 && p < 1) {
				p = 0.5
			}
			prefix = append(prefix, p)
			b = b[9:]
			continue
		}
		v := float64(tag) // fuzzSegZeros reads 0, fuzzSegOnes 1
		for i := 0; i <= int(b[1]); i++ {
			prefix = append(prefix, v)
		}
		b = b[2:]
	}
	if len(prefix) > fuzzMaxPrefix {
		prefix = prefix[:fuzzMaxPrefix]
	}
	return prefix
}

// encodeFuzzPrefix is decodeFuzzPrefix's inverse for prefixes whose
// entries are 0, 1 or in (0, 1); the seed corpus is built with it.
func encodeFuzzPrefix(prefix []float64) []byte {
	var b []byte
	for i := 0; i < len(prefix); {
		p := prefix[i]
		if p > 0 && p < 1 {
			b = append(b, fuzzSegFrac)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
			i++
			continue
		}
		tag := byte(fuzzSegZeros)
		if p >= 1 {
			tag = fuzzSegOnes
		}
		n := 1
		for i+n < len(prefix) && n < 256 && math.Float64bits(prefix[i+n]) == math.Float64bits(p) {
			n++
		}
		b = append(b, tag, byte(n-1))
		i += n
	}
	return b
}

// Fuzz flag bits: the information model (and with it the vector policy),
// the vector's tail, the recharge process (Bernoulli wins over Periodic;
// neither bit selects Constant), and the periodic baseline π_PE in place
// of the vector policy.
const (
	fuzzPartialInfo = 1 << iota
	fuzzTailOne
	fuzzPeriodic
	fuzzBernoulli
	fuzzPhase
)

// fuzzKernelConfig decodes one fuzz input into a kernel-eligible
// configuration: a VectorFI under FullInfo or a VectorPI under
// PartialInfo over the decoded prefix — or, with fuzzPhase, Periodic(θ1,
// θ2) with θ1 the prefix's leading ones and θ2 its length (at least 1
// and θ1) —, N = 1 + sensors%4 sensors, in round-robin when sensors/4 is
// 0 and in blocks of sensors/4 slots otherwise, K in [7, 200], Slots in
// [1, 20000], Constant(e), Periodic(a, p) or Bernoulli(q, c) recharge.
func fuzzKernelConfig(t *testing.T, flags, sensors uint8, k, slots uint16, rech, period uint8, seed uint64, prefix []byte) Config {
	t.Helper()
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	v := core.Vector{Prefix: decodeFuzzPrefix(prefix)}
	if flags&fuzzTailOne != 0 {
		v.Tail = 1
	}
	info := FullInfo
	newPolicy := func(int) Policy { return &VectorFI{Vector: v} }
	if flags&fuzzPartialInfo != 0 {
		info = PartialInfo
		newPolicy = func(int) Policy { return &VectorPI{Vector: v} }
	}
	if flags&fuzzPhase != 0 {
		pe := &Periodic{Theta1: 1, Theta2: len(v.Prefix)}
		for pe.Theta1 < len(v.Prefix) && v.Prefix[pe.Theta1] >= 1 {
			pe.Theta1++
		}
		pe.Theta2 = max(pe.Theta2, pe.Theta1)
		newPolicy = func(int) Policy { return pe }
	}
	newRecharge := func() energy.Recharge {
		r, err := energy.NewConstant(float64(1+rech%32) / 16)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	switch {
	case flags&fuzzBernoulli != 0:
		newRecharge = func() energy.Recharge {
			r, err := energy.NewBernoulli(float64(1+rech%16)/16, float64(1+period%16)/4)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	case flags&fuzzPeriodic != 0:
		newRecharge = func() energy.Recharge {
			r, err := energy.NewPeriodic(float64(1+rech%8), 1+int(period%16))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	cfg := Config{
		Dist:        d,
		Params:      core.DefaultParams(),
		NewRecharge: newRecharge,
		NewPolicy:   newPolicy,
		N:           1 + int(sensors%4),
		Mode:        ModeRoundRobin,
		Info:        info,
		BatteryCap:  float64(7 + k%194),
		Slots:       1 + int64(slots%20000),
		Seed:        seed,
	}
	if b := int(sensors / 4); b > 0 {
		cfg.Mode, cfg.BlockLen = ModeBlocks, b
	}
	return cfg
}

// FuzzKernelMatchesReference generates kernel-eligible configurations
// and, under deterministic recharge, requires the kernel to reproduce the
// reference engine: every Result field but Engine reflect.DeepEqual,
// with the Metrics and Stats compared on the fields both engines define
// alike (the event classes and the QoM side; battery occupancy is sampled
// on every stride-th slot by the reference and every stride-th awake slot
// by the kernel). Under Bernoulli recharge the kernel's sleep runs draw
// one Binomial per sensor, so the engines agree only in law and only the
// event count, which no recharge draw touches, must match. A single
// sensor also runs the kernel traced, which decides every awake slot
// alone but fast-forwards sleep runs the same way: there the untraced
// run's always-on runs must match the per-slot steps in everything,
// battery samples included, but the always-on count, under every
// recharge process.
func FuzzKernelMatchesReference(f *testing.F) {
	d, err := dist.NewWeibull(40, 3)
	if err != nil {
		f.Fatal(err)
	}
	fi, err := core.GreedyFI(d, 0.5, core.DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	fiFlags := uint8(0)
	if fi.Policy.Tail >= 1 {
		fiFlags |= fuzzTailOne
	}
	fig3a := encodeFuzzPrefix(fi.Policy.Prefix)
	// fig3a's greedy-FI vector at K = 7 under Constant(0.5) and
	// Periodic(5, 10): most awake slots are energy-denied.
	f.Add(fiFlags, uint8(0), uint16(0), uint16(19998), uint8(7), uint8(0), uint64(1), fig3a)
	f.Add(fiFlags|fuzzPeriodic, uint8(0), uint16(0), uint16(19998), uint8(4), uint8(9), uint64(2), fig3a)
	// π_AG: always on from the first slot (Tail 1, empty prefix).
	f.Add(uint8(fuzzPartialInfo|fuzzTailOne), uint8(0), uint16(43), uint16(12344), uint8(7), uint8(0), uint64(3), []byte(nil))
	// The same vector at K = 7 under Bernoulli(0.5, 1), fig3a's default
	// recharge.
	f.Add(fiFlags|fuzzBernoulli, uint8(0), uint16(0), uint16(19998), uint8(7), uint8(3), uint64(6), fig3a)
	// An N = 3 fleet whose first always-on slot, t = 3, is sensor 2's.
	f.Add(uint8(fuzzTailOne|fuzzPeriodic), uint8(2), uint16(13), uint16(10000), uint8(4), uint8(9), uint64(4),
		encodeFuzzPrefix([]float64{0, 0}))
	// Interleaved zero, one and fractional runs with a zero tail, N = 2.
	f.Add(uint8(fuzzPartialInfo), uint8(1), uint16(93), uint16(4999), uint8(3), uint8(0), uint64(5),
		encodeFuzzPrefix([]float64{0, 0, 0, 1, 1, 0.25, 1, 1, 1, 0, 0.5, 1}))
	// fig6's π_PE: periodic(3/8) on 8-slot blocks rotating over N = 4
	// sensors (sensors = 8·4 + 3), K = 200, on a starved Constant(1/16).
	f.Add(uint8(fuzzPartialInfo|fuzzPhase), uint8(35), uint16(193), uint16(19999), uint8(0), uint8(0), uint64(7),
		encodeFuzzPrefix([]float64{1, 1, 1, 0, 0, 0, 0, 0}))
	f.Fuzz(func(t *testing.T, flags, sensors uint8, k, slots uint16, rech, period uint8, seed uint64, prefix []byte) {
		cfg := fuzzKernelConfig(t, flags, sensors, k, slots, rech, period, seed, prefix)
		cfg.Engine = EngineReference
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		cfg.Engine = EngineKernel
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("kernel: %v", err)
		}
		if got.Engine != EngineKernel {
			t.Fatalf("kernel run reports engine %v", got.Engine)
		}
		if flags&fuzzBernoulli == 0 {
			requireKernelMatchesReference(t, got, want)
		} else if got.Events != want.Events {
			t.Fatalf("kernel counts %d events, reference %d", got.Events, want.Events)
		}

		m := got.Metrics
		awake := got.Slots - m.KernelSlotsFastForwarded
		if m.KernelSlotsAlwaysOn > awake || m.ObservedSlots != awake/batterySampleStride {
			t.Fatalf("kernel counters: %d always-on and %d observed of %d awake slots",
				m.KernelSlotsAlwaysOn, m.ObservedSlots, awake)
		}
		if cfg.N != 1 {
			return
		}
		cfg.Tracer = trace.NewWriter(io.Discard)
		stepped, err := Run(cfg)
		if err != nil {
			t.Fatalf("traced kernel: %v", err)
		}
		if stepped.Metrics.KernelSlotsAlwaysOn != 0 {
			t.Fatalf("traced kernel advanced %d slots in always-on runs", stepped.Metrics.KernelSlotsAlwaysOn)
		}
		stepped.Metrics.KernelSlotsAlwaysOn = m.KernelSlotsAlwaysOn
		if !reflect.DeepEqual(got, stepped) {
			t.Fatalf("always-on runs differ from per-slot steps:\nuntraced %+v\n%+v\ntraced   %+v\n%+v",
				got, *got.Metrics, stepped, *stepped.Metrics)
		}
	})
}

// requireKernelMatchesReference compares a kernel result with the
// reference engine's: every field but Engine, Metrics and Stats exactly,
// then the Metrics event classes and the Stats report (battery
// occupancy is sampled on every stride-th slot by the reference and
// every stride-th awake slot by the kernel).
func requireKernelMatchesReference(t *testing.T, got, want *Result) {
	t.Helper()
	g, w := *got, *want
	g.Engine = w.Engine
	g.Metrics, w.Metrics = nil, nil
	g.Stats, w.Stats = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("kernel and reference diverge:\nkernel    %+v\nreference %+v", g, w)
	}
	gm, wm := got.Metrics, want.Metrics
	if gm.MissAsleep != wm.MissAsleep || gm.MissNoEnergy != wm.MissNoEnergy ||
		gm.WastedActivations != wm.WastedActivations {
		t.Fatalf("kernel metrics diverge: asleep %d/%d noenergy %d/%d wasted %d/%d",
			gm.MissAsleep, wm.MissAsleep, gm.MissNoEnergy, wm.MissNoEnergy,
			gm.WastedActivations, wm.WastedActivations)
	}
	if gs, ws := *got.Stats, *want.Stats; !reflect.DeepEqual(gs, ws) {
		t.Fatalf("kernel stats diverge:\nkernel    %+v\nreference %+v", gs, ws)
	}
}
