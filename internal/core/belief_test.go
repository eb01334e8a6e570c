package core

import (
	"math"
	"sync"
	"testing"

	"eventcap/internal/dist"
	"eventcap/internal/renewal"
	"eventcap/internal/rng"
)

// TestBeliefMatchesRenewalMass cross-validates the filter against the
// independent renewal-theory implementation (the DESIGN.md substitution
// argument): after k fully unobserved slots since a capture, the event
// probability must equal the renewal mass function m(k+1)... shifted by
// one because the capture itself was the renewal at relative slot 0.
func TestBeliefMatchesRenewalMass(t *testing.T) {
	for _, weights := range [][]float64{
		{0.2, 0.5, 0.3},
		{0, 0, 1},
		{0.6, 0.4},
		{0.1, 0.1, 0.1, 0.3, 0.4},
	} {
		d := mustEmpirical(t, weights)
		tab, err := dist.Tabulate(d, 1e-12, 1000)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := renewal.New(tab.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		f := NewBeliefFilter(d)
		for step := 0; step < 60; step++ {
			// At the beginning of slot step+1 (0 unobserved slots means
			// the capture was last slot): P(event) = m(step+1).
			got := f.EventProb()
			want := proc.Mass(step + 1)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("weights %v, step %d: filter %v vs renewal mass %v",
					weights, step, got, want)
			}
			f.AdvanceNoCapture(0)
		}
	}
}

// TestBeliefActiveEqualsHazard: when the sensor is active every slot and
// captures nothing, the age is known exactly, so the filtered event
// probability must equal the distribution's hazard β_i.
func TestBeliefActiveEqualsHazard(t *testing.T) {
	d := mustWeibull(t, 12, 2.5)
	f := NewBeliefFilter(d)
	for i := 1; i <= 30; i++ {
		if got, want := f.EventProb(), d.Hazard(i); math.Abs(got-want) > 1e-9 {
			t.Fatalf("state %d: filter %v vs hazard %v", i, got, want)
		}
		f.AdvanceNoCapture(1)
	}
}

func TestBeliefMassConserved(t *testing.T) {
	d := mustPareto(t, 2, 10)
	f := NewBeliefFilter(d)
	src := rng.New(7, 7)
	for i := 0; i < 500; i++ {
		c := src.Float64()
		f.AdvanceNoCapture(c)
		if m := f.TotalMass(); math.Abs(m-1) > 1e-9 {
			t.Fatalf("step %d: belief mass %v", i, m)
		}
		if p := f.EventProb(); p < 0 || p > 1 {
			t.Fatalf("step %d: event probability %v", i, p)
		}
	}
}

func TestBeliefReset(t *testing.T) {
	d := mustWeibull(t, 8, 2)
	f := NewBeliefFilter(d)
	for i := 0; i < 10; i++ {
		f.AdvanceNoCapture(0.5)
	}
	f.Reset()
	if got, want := f.EventProb(), d.Hazard(1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("after reset EventProb %v, want β1 %v", got, want)
	}
	b := f.Belief()
	if len(b) != 1 || b[0] != 1 {
		t.Fatalf("after reset belief %v, want [1]", b)
	}
}

func TestBeliefClampsActivation(t *testing.T) {
	d := mustWeibull(t, 8, 2)
	f := NewBeliefFilter(d)
	f.AdvanceNoCapture(-3) // treated as 0
	f.AdvanceNoCapture(7)  // treated as 1
	if m := f.TotalMass(); math.Abs(m-1) > 1e-9 {
		t.Fatalf("mass %v after clamped updates", m)
	}
}

// TestBeliefMatchesMonteCarlo simulates the true hidden process under a
// mixed activation pattern and compares empirical conditional event
// frequencies with the filter's β̂_i sequence.
func TestBeliefMatchesMonteCarlo(t *testing.T) {
	d := mustEmpirical(t, []float64{0.15, 0.35, 0.3, 0.2})
	pattern := []float64{0, 1, 0.5, 1, 0, 0, 1, 1} // c_i for f-states 1..8

	// Analytic hazards along the no-capture path.
	f := NewBeliefFilter(d)
	want := make([]float64, len(pattern))
	for i, c := range pattern {
		want[i] = f.EventProb()
		f.AdvanceNoCapture(c)
	}

	// Monte Carlo: run the hidden renewal chain; at each f-state apply
	// the pattern; record event occurrence frequencies conditioned on
	// reaching the state without a capture.
	src := rng.New(99, 3)
	occur := make([]int, len(pattern))
	visits := make([]int, len(pattern))
	const episodes = 400000
	for ep := 0; ep < episodes; ep++ {
		age := 1
		for i := 0; i < len(pattern); i++ {
			visits[i]++
			event := src.Bernoulli(d.Hazard(age))
			active := src.Bernoulli(pattern[i])
			if event {
				occur[i]++
				age = 1
				if active {
					break // captured: episode renews
				}
			} else {
				age++
			}
		}
	}
	for i := range pattern {
		if visits[i] < 1000 {
			continue
		}
		got := float64(occur[i]) / float64(visits[i])
		sigma := math.Sqrt(want[i]*(1-want[i])/float64(visits[i])) + 1e-9
		if math.Abs(got-want[i]) > 6*sigma {
			t.Errorf("f-state %d: MC hazard %v vs filter %v (±%v)", i+1, got, want[i], 6*sigma)
		}
	}
}

// denseBelief is the filter update as a walk over every stored age: the
// reference that BeliefFilter's live-span update must reproduce bit for
// bit. hazard[j] holds d.Hazard(j) for ages up to the cap; b sums to
// mass, and prob is the event probability of the current belief.
type denseBelief struct {
	hazard     []float64
	b, scratch []float64
	mass, prob float64
}

func newDenseBelief(d dist.Interarrival) *denseBelief {
	f := &denseBelief{hazard: make([]float64, maxBeliefAges+1)}
	for j := 1; j <= maxBeliefAges; j++ {
		f.hazard[j] = d.Hazard(j)
	}
	f.reset()
	return f
}

func (f *denseBelief) reset() {
	f.b = append(f.b[:0], 1)
	f.mass, f.prob = 1, f.hazard[1]
}

func (f *denseBelief) eventProb() float64 { return f.prob }

func (f *denseBelief) clone() *denseBelief {
	return &denseBelief{hazard: f.hazard, b: append([]float64(nil), f.b...), mass: f.mass, prob: f.prob}
}

func (f *denseBelief) advanceNoCapture(c float64) {
	if c < 0 {
		c = 0
	}
	if c > 1 {
		c = 1
	}
	hazard := f.prob
	denom := 1 - c*hazard
	n := len(f.b)
	if cap(f.scratch) < n+1 {
		f.scratch = make([]float64, n+1, 2*(n+1))
	}
	next := f.scratch[:n+1]
	for i := range next {
		next[i] = 0
	}
	if denom <= 1e-300 {
		f.scratch, f.b = f.b, next
		f.reset()
		return
	}
	inv := 1 / denom
	miss := hazard * (1 - c) * inv
	inv /= f.mass
	next[0] = miss
	mass, event := miss, miss*f.hazard[1]
	for j := 0; j < n; j++ {
		w := f.b[j]
		if w == 0 {
			continue
		}
		to := j + 1
		if to >= maxBeliefAges {
			to = maxBeliefAges - 1
		}
		v := w * (1 - f.hazard[j+1]) * inv
		next[to] += v
		mass += v
		event += v * f.hazard[to+1]
	}
	if len(next) > maxBeliefAges {
		next = next[:maxBeliefAges]
	}
	var tail, tailEvent float64
	end := len(next)
	for end > 1 {
		w := next[end-1]
		if tail+w >= 1e-14 {
			break
		}
		tail += w
		tailEvent += w * f.hazard[end]
		end--
	}
	f.scratch, f.b = f.b, next
	if end == 1 && next[0] == 0 {
		f.reset()
		return
	}
	f.b = next[:end]
	f.mass = mass - tail
	f.prob = min(max((event-tailEvent)/f.mass, 0), 1)
}

// sameBits reports whether two float64 slices are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// fuzzBeliefDist decodes a distribution from the fuzz input: kind picks
// the family, p1/p2 its parameters on a grid that contains the paper's
// Weibull(40,3) and Pareto(2,10), and weights an Empirical law. It
// returns nil for parameters the constructors reject.
func fuzzBeliefDist(kind, p1, p2 uint8, weights []byte) dist.Interarrival {
	var d dist.Interarrival
	var err error
	switch kind % 4 {
	case 0:
		d, err = dist.NewWeibull(float64(p1)/2, float64(p2)/20)
	case 1:
		d, err = dist.NewPareto(1+float64(p1)/20, float64(p2)/2)
	case 2:
		d, err = dist.NewGeometric(float64(p1) / 255)
	default:
		if len(weights) > 64 {
			weights = weights[:64]
		}
		w := make([]float64, len(weights))
		for i, x := range weights {
			w[i] = float64(x)
		}
		d, err = dist.NewEmpirical(w)
	}
	if err != nil {
		return nil
	}
	return d
}

// beliefActions expands a fuzz action string. Each byte is op | n<<2:
// op 0 and 1 run n+1 slots at c = 0 and c = 1, op 2 is one slot at the
// fractional c = n/63, and op 3 is a capture (reset) — or, for n = 63,
// one slot at c = NaN. A capture is returned as c = -1 and NaN as NaN.
func beliefActions(ops []byte) []float64 {
	var out []float64
	for _, b := range ops {
		n := int(b >> 2)
		switch b & 3 {
		case 0, 1:
			for k := 0; k <= n; k++ {
				out = append(out, float64(b&3))
			}
		case 2:
			out = append(out, float64(n)/63)
		default:
			if n == 63 {
				out = append(out, math.NaN())
			} else {
				out = append(out, -1)
			}
		}
	}
	return out
}

// beliefOps encodes runs for the seed corpus: pairs of (op, count) with
// op 0/1 for c = 0/1 runs, op 2 for one fractional step at count/63, op
// 3 for a capture.
func beliefOps(runs ...int) []byte {
	var out []byte
	for i := 0; i+1 < len(runs); i += 2 {
		op, n := runs[i], runs[i+1]
		if op >= 2 {
			out = append(out, byte(op|n<<2))
			continue
		}
		for ; n > 0; n -= 64 {
			out = append(out, byte(op|(min(n, 64)-1)<<2))
		}
	}
	return out
}

// FuzzBeliefStepMatchesDense drives the live-span filter and the dense
// reference through the same action sequence and requires the posterior
// and the event probability to agree bit for bit after every step. It
// also requires the posterior to keep its mass: within 1e-12 of 1, or of
// the roundoff that the step's division by 1 − cβ̂ can amplify when that
// is larger. The seeds cover the Pareto(2,10) elder bucket (more than
// 512 always-on slots), the golden Weibull(40,3) dead-tail chain (whose
// belief used to empty at step 413 when the update divided by 1 − cβ̂
// alone), once past its stop horizon and once far into the ageing tail,
// and an always-on run switched back to c = 0. The first and third
// seeds (seed#0, seed#2) park in the elder bucket, where the filter
// skips repeated c = 1 updates (87 and 188 of them): the comparison
// checks the skip against the dense walk.
func FuzzBeliefStepMatchesDense(f *testing.F) {
	f.Add(uint8(1), uint8(20), uint8(20), []byte(nil), beliefOps(0, 100, 1, 600))
	f.Add(uint8(0), uint8(80), uint8(60), []byte(nil), beliefOps(0, 45, 1, 1, 0, 213, 2, 51, 1, 300))
	f.Add(uint8(1), uint8(20), uint8(20), []byte(nil), beliefOps(0, 50, 1, 700, 0, 200, 2, 20, 1, 30))
	f.Add(uint8(0), uint8(80), uint8(60), []byte(nil), beliefOps(0, 30, 1, 400, 0, 50, 3, 0, 2, 32, 1, 10))
	f.Add(uint8(3), uint8(0), uint8(0), []byte{3, 0, 0, 0, 0, 0, 0, 4, 0, 0, 3}, beliefOps(0, 20, 1, 40, 2, 10, 0, 30))
	f.Add(uint8(2), uint8(40), uint8(0), []byte(nil), beliefOps(1, 50, 2, 63, 0, 50))
	f.Add(uint8(0), uint8(80), uint8(60), []byte(nil), append(beliefOps(0, 30, 1, 400), 3|63<<2, 0))
	f.Add(uint8(0), uint8(80), uint8(60), []byte(nil), beliefOps(0, 45, 1, 1, 0, 213, 2, 51, 1, 160))
	f.Fuzz(func(t *testing.T, kind, p1, p2 uint8, weights, ops []byte) {
		d := fuzzBeliefDist(kind, p1, p2, weights)
		if d == nil {
			return
		}
		actions := beliefActions(ops)
		if len(actions) > 2048 {
			actions = actions[:2048]
		}
		got, want := NewBeliefFilter(d), newDenseBelief(d)
		for step, c := range actions {
			// The step's no-capture probability 1 − cβ̂, c clamped as
			// the update clamps it.
			noCapture := 1 - min(max(c, 0), 1)*got.EventProb()
			if c == -1 {
				got.Reset()
				want.reset()
			} else {
				got.AdvanceNoCapture(c)
				want.advanceNoCapture(c)
			}
			if g, w := got.Belief(), want.b; !sameBits(g, w) {
				t.Fatalf("%s step %d (c=%v): belief differs from the dense reference\n got  %v\n want %v", d.Name(), step, c, g, w)
			}
			if g, w := got.EventProb(), want.eventProb(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s step %d (c=%v): EventProb %v, dense reference %v", d.Name(), step, c, g, w)
			}
			if math.IsNaN(got.EventProb()) {
				continue // a NaN activation poisons the belief until a capture
			}
			// The sums behind mass and β̂ carry at most ~3·512 ulps,
			// about 2e-13, which the division by 1 − cβ̂ amplifies;
			// the tail trim adds under 1e-14.
			tol := 1e-12
			if c != -1 {
				tol = max(tol, 2.5e-13/noCapture)
			}
			if m := got.TotalMass(); !(math.Abs(m-1) <= tol) {
				t.Fatalf("%s step %d (c=%v): belief mass %v, want 1 within %v", d.Name(), step, c, m, tol)
			}
		}
	})
}

// TestBeliefCloneConcurrent: clones share the hazard table, so advancing
// two of them from two goroutines must neither race (run under -race)
// nor disturb each other.
func TestBeliefCloneConcurrent(t *testing.T) {
	base := NewBeliefFilter(mustPareto(t, 2, 10))
	for i := 0; i < 20; i++ {
		base.AdvanceNoCapture(0)
	}
	run := func(f *BeliefFilter, c float64) []float64 {
		for i := 0; i < 600; i++ {
			f.AdvanceNoCapture(c)
			f.EventProb()
		}
		return f.Belief()
	}
	want := [2][]float64{run(base.Clone(), 0), run(base.Clone(), 1)}
	var got [2][]float64
	var wg sync.WaitGroup
	for k, c := range []float64{0, 1} {
		f := base.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = run(f, c)
		}()
	}
	wg.Wait()
	for k := range got {
		if !sameBits(got[k], want[k]) {
			t.Fatalf("clone %d advanced concurrently differs from its sequential run", k)
		}
	}
}

// TestBeliefParkedMatchesDense: Pareto(2,10) under an always-on sensor
// shifts its belief up to the elder bucket and parks there, after which
// the filter skips every repeated c = 1 update. It must still match the
// dense walk bit for bit after every step, a c = 0 or NaN step after
// parking must run the update, a clone of a parked filter must go on
// identically, and Reset must leave the parked state.
func TestBeliefParkedMatchesDense(t *testing.T) {
	d := mustPareto(t, 2, 10)
	same := func(got *BeliefFilter, want *denseBelief) bool {
		return sameBits(got.Belief(), want.b) && math.Float64bits(got.EventProb()) == math.Float64bits(want.eventProb())
	}
	got, want := NewBeliefFilter(d), newDenseBelief(d)
	for i := 0; i < 100; i++ {
		got.AdvanceNoCapture(0)
		want.advanceNoCapture(0)
		if !same(got, want) {
			t.Fatalf("cooling step %d: filter differs from the dense reference", i)
		}
	}
	parkedAt := -1
	for i := 0; i < 1500; i++ {
		got.AdvanceNoCapture(1)
		want.advanceNoCapture(1)
		if !same(got, want) {
			t.Fatalf("recovery step %d: filter differs from the dense reference", i)
		}
		if got.parked && parkedAt < 0 {
			parkedAt = i
		}
		if parkedAt >= 0 && !got.parked {
			t.Fatalf("recovery step %d: filter left the parked state it reached at step %d", i, parkedAt)
		}
	}
	// The shift phase carries the oldest live age (101) past the cap of
	// maxBeliefAges, so the filter parks after about that many steps.
	if parkedAt < 0 || parkedAt > maxBeliefAges+100 {
		t.Fatalf("filter parked at recovery step %d, want within the ~%d-step shift phase", parkedAt, maxBeliefAges)
	}

	clone, cloneWant := got.Clone(), want.clone()
	if !clone.parked {
		t.Fatal("Clone dropped the parked state")
	}
	for i, c := range []float64{1, 1, 1, 0, 1, 1} {
		got.AdvanceNoCapture(c)
		clone.AdvanceNoCapture(c)
		want.advanceNoCapture(c)
		cloneWant.advanceNoCapture(c)
		if !same(got, want) || !same(clone, cloneWant) || !sameBits(got.Belief(), clone.Belief()) {
			t.Fatalf("step %d (c=%v) after cloning: the clone and the original diverge", i, c)
		}
	}

	for _, c := range []float64{0, math.NaN()} {
		parked, ref := clone.Clone(), cloneWant.clone()
		for !parked.parked {
			parked.AdvanceNoCapture(1)
			ref.advanceNoCapture(1)
		}
		prob := parked.EventProb()
		parked.AdvanceNoCapture(c)
		ref.advanceNoCapture(c)
		if !same(parked, ref) {
			t.Fatalf("c=%v step after parking: filter differs from the dense reference", c)
		}
		if parked.parked || math.Float64bits(parked.EventProb()) == math.Float64bits(prob) {
			t.Fatalf("c=%v step after parking was skipped", c)
		}
	}

	// Reset leaves the parked state: the fresh belief's c = 1 step runs.
	for !clone.parked {
		clone.AdvanceNoCapture(1)
		cloneWant.advanceNoCapture(1)
	}
	clone.Reset()
	cloneWant.reset()
	clone.AdvanceNoCapture(1)
	cloneWant.advanceNoCapture(1)
	if !same(clone, cloneWant) {
		t.Fatal("c = 1 step after resetting a parked filter differs from the dense reference")
	}
}
