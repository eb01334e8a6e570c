package core

import (
	"math"
	"reflect"
	"testing"

	"eventcap/internal/dist"
	"eventcap/internal/obs"
	"eventcap/internal/rng"
)

// sameEval reports whether two evaluations agree bit for bit.
func sameEval(a, b PIEval) bool {
	return math.Float64bits(a.CaptureProb) == math.Float64bits(b.CaptureProb) &&
		math.Float64bits(a.EnergyRate) == math.Float64bits(b.EnergyRate) &&
		math.Float64bits(a.ExpectedCycle) == math.Float64bits(b.ExpectedCycle) &&
		a.Horizon == b.Horizon
}

// freshClustering walks cp's chain from state 0 on a new evaluator.
func freshClustering(d dist.Interarrival, p Params, cp ClusteringPolicy) (PIEval, error) {
	return newPIEvaluator(d, p).evaluate(cp.policyFn(), cp.N3, nil)
}

// checkResume evaluates rp on pe by resuming trunk's walk (the memo is
// cleared, so the evaluation walks) and compares it with a fresh walk,
// bit for bit and error for error; then it asks again and checks that the
// memo hit returns the same without a walk. It reports whether the trunk
// walk had ended before the checkpoint.
func checkResume(t testing.TB, pe *piEvaluator, d dist.Interarrival, trunk ClusteringPolicy, rp resumePoint) (ended bool) {
	t.Helper()
	clear(pe.memo)
	clear(pe.fracMemo)
	got, gerr := pe.resume(rp.cp, trunk, rp.from)
	want, werr := freshClustering(d, pe.p, rp.cp)
	if gerr != werr || !sameEval(got, want) {
		t.Fatalf("%s %+v resumed after %d states of %+v: %+v (err %v), fresh walk %+v (err %v)",
			d.Name(), rp.cp, rp.from, trunk, got, gerr, want, werr)
	}
	ended = rp.from > 0 && pe.trunk.ended && pe.trunk.horizon < rp.from
	walks := pe.evaluations
	got, gerr = pe.resume(rp.cp, trunk, rp.from)
	if pe.evaluations != walks || gerr != werr || !sameEval(got, want) {
		t.Fatalf("%s %+v from the memo (%d walks): %+v (err %v), fresh walk %+v (err %v)",
			d.Name(), rp.cp, pe.evaluations-walks, got, gerr, want, werr)
	}
	return ended
}

// TestResumeMatchesFreshWalk: every hill-climb neighbour and every
// fractional variant, evaluated by resuming its incumbent's walk, equals a
// fresh walk bit for bit (U, E_out, ExpectedCycle, Horizon and error), on
// generated incumbents and on ones whose walk ends (survival below
// piSurvivalTol) before the checkpoint. One evaluator serves each law, so
// its incumbent walk is moved forward, restarted and replaced as the
// searches do.
func TestResumeMatchesFreshWalk(t *testing.T) {
	src := rng.New(23, 0)
	p := DefaultParams()
	for _, d := range []dist.Interarrival{mustWeibull(t, 40, 3), mustPareto(t, 2, 10), goldenMarkov(t), trimodal(t)} {
		pe := newPIEvaluator(d, p)
		incumbents := []ClusteringPolicy{
			{N1: 1, N2: 200, N3: 260, C1: 1, C2: 1, C3: 1}, // always on: Weibull's walk ends near state 124
			{N1: 1, N2: 17, N3: 40, C1: 1, C2: 1, C3: 1},   // the trimodal walk ends at state 17
			{N1: 2, N2: 150, N3: 151, C1: 1, C2: 1, C3: 1},
		}
		for k := 0; k < 20; k++ {
			n1 := 1 + src.Intn(150)
			n2 := n1 + src.Intn(100)
			incumbents = append(incumbents, ClusteringPolicy{N1: n1, N2: n2, N3: n2 + 1 + src.Intn(500), C1: 1, C2: 1, C3: 1})
		}
		checked, ended := 0, 0
		for _, cur := range incumbents {
			for _, s := range []int{16, 5, 2, 1} {
				for _, nb := range climbNeighbors(cur, s) {
					if !nb.cp.valid() {
						continue
					}
					checked++
					if checkResume(t, pe, d, cur, nb) {
						ended++
					}
				}
			}
			// The fractional pass varies deterministic boundaries of a
			// policy whose other boundaries may be fractional.
			frac := cur
			frac.C1 = src.Float64()
			for _, trunk := range []ClusteringPolicy{cur, frac} {
				for _, v := range boundaryVariants(trunk) {
					if !v.ok {
						continue
					}
					for _, c := range []float64{0, src.Float64(), 1} {
						checked++
						if checkResume(t, pe, d, trunk, resumePoint{v.at(c), v.from}) {
							ended++
						}
					}
				}
			}
		}
		t.Logf("%s: %d resumed evaluations, %d from walks that had ended", d.Name(), checked, ended)
		if _, ok := d.(*dist.Pareto); !ok && ended == 0 {
			t.Errorf("%s: no evaluation resumed from a walk that had ended", d.Name())
		}
	}
}

// TestSearchResumesMatchFreshWalks: every evaluation the golden solves
// walk — base and gap-capped searches on one evaluator, coarse fallbacks,
// hill-climbs, fractional passes and boundary searches — equals a fresh
// walk of the same policy, bit for bit.
func TestSearchResumesMatchFreshWalks(t *testing.T) {
	p := DefaultParams()
	var d dist.Interarrival
	resumed := 0
	testHookResume = func(cp ClusteringPolicy, from int, ev PIEval, err error) {
		want, werr := freshClustering(d, p, cp)
		if err != werr || !sameEval(ev, want) {
			t.Errorf("%s %+v resumed after %d states: %+v (err %v), fresh walk %+v (err %v)", d.Name(), cp, from, ev, err, want, werr)
		}
		if from > 0 {
			resumed++
		}
	}
	defer func() { testHookResume = nil }()
	for _, s := range []struct {
		d     dist.Interarrival
		rates []float64
	}{
		{mustWeibull(t, 40, 3), []float64{0.1, 0.5, 1.2}},
		{mustPareto(t, 2, 10), []float64{0.25, 0.75, 1.25}},
		{goldenMarkov(t), []float64{0.5, 1, 1.5}},
		{trimodal(t), []float64{0.15}},
	} {
		d = s.d
		for _, e := range s.rates {
			pair := clusteringPair{d: d, e: e, p: p}
			opts := goldenSolveOptions(d)
			if _, err := pair.base(opts[0]); err != nil {
				t.Fatalf("%s e=%g: %v", d.Name(), e, err)
			}
			if _, err := pair.capped(opts[len(opts)-1]); err != nil {
				t.Fatalf("%s e=%g capped: %v", d.Name(), e, err)
			}
		}
	}
	if resumed == 0 {
		t.Fatal("no search evaluation resumed from a checkpoint")
	}
	t.Logf("%d evaluations resumed from a checkpoint", resumed)
}

// unkeyed hides a law's cache key, so the cached solvers compute it
// uncached.
type unkeyed struct{ dist.Interarrival }

// TestPairMatchesSeparateSolves: OptimizeClusteringPairCached returns what
// two independent OptimizeClustering calls return — with the quick and
// the full options of the robust pick, equal caps, a capped search wider
// than the base or on another grid, a saturated rate and an uncached
// law — from a cold cache, with a warm base and a cold capped
// entry, and from a warm cache without a miss. A failing base search
// fails the pair with the same error and runs no capped search.
func TestPairMatchesSeparateSolves(t *testing.T) {
	defer ResetPolicyCache()
	p := DefaultParams()
	weibull, pareto, markov := mustWeibull(t, 40, 3), mustPareto(t, 2, 10), goldenMarkov(t)
	quick := func(d dist.Interarrival) (ClusteringOptions, ClusteringOptions) {
		o := goldenSolveOptions(d)
		return o[0], o[len(o)-1]
	}
	full := func(d dist.Interarrival) (ClusteringOptions, ClusteringOptions) {
		return ClusteringOptions{}, ClusteringOptions{MaxGap: max(16*int(d.Mean()+1), 8)}
	}
	type tc struct {
		name         string
		d            dist.Interarrival
		e            float64
		base, capped ClusteringOptions
	}
	var cases []tc
	for _, e := range []float64{0.25, 0.75, 1.25} {
		b, c := quick(pareto)
		cases = append(cases, tc{"quick", pareto, e, b, c})
	}
	for _, d := range []dist.Interarrival{weibull, markov} {
		b, c := quick(d)
		cases = append(cases, tc{"quick", d, 0.5, b, c})
		b, c = full(d)
		cases = append(cases, tc{"full", d, 0.5, b, c})
	}
	b, c := full(pareto)
	cases = append(cases,
		tc{"full", pareto, 0.75, b, c},
		tc{"equal caps", pareto, 0.25, quickClustering, quickClustering},
		tc{"wider cap", pareto, 0.25, ClusteringOptions{CoarsePoints: 8, MaxGap: 64}, quickClustering},
		tc{"other grid", pareto, 0.25, quickClustering, ClusteringOptions{CoarsePoints: 4, MaxGap: 256}},
		tc{"saturated", weibull, 5, quickClustering, ClusteringOptions{CoarsePoints: 8, MaxGap: 128}},
		tc{"uncached", unkeyed{pareto}, 0.75, quickClustering, ClusteringOptions{CoarsePoints: 8, MaxGap: 336}},
	)
	for _, c := range cases {
		name := c.name + " " + c.d.Name()
		wantBase, err := OptimizeClustering(c.d, c.e, p, c.base)
		if err != nil {
			t.Fatalf("%s e=%g: %v", name, c.e, err)
		}
		wantCapped, err := OptimizeClustering(c.d, c.e, p, c.capped)
		if err != nil {
			t.Fatalf("%s e=%g capped: %v", name, c.e, err)
		}
		check := func(when string, warmBase bool) {
			t.Helper()
			ResetPolicyCache()
			if warmBase {
				if _, err := OptimizeClusteringCached(c.d, c.e, p, c.base); err != nil {
					t.Fatal(err)
				}
			}
			gotBase, gotCapped, err := OptimizeClusteringPairCached(c.d, c.e, p, c.base, c.capped)
			if err != nil {
				t.Fatalf("%s e=%g %s: %v", name, c.e, when, err)
			}
			if !reflect.DeepEqual(gotBase, wantBase) || !reflect.DeepEqual(gotCapped, wantCapped) {
				t.Fatalf("%s e=%g %s: pair (%+v, %+v), separate solves (%+v, %+v)",
					name, c.e, when, gotBase, gotCapped, wantBase, wantCapped)
			}
		}
		check("cold", false)
		hits, misses := CacheStats()
		if _, _, err := OptimizeClusteringPairCached(c.d, c.e, p, c.base, c.capped); err != nil {
			t.Fatal(err)
		}
		if h, m := CacheStats(); c.name != "uncached" && (m != misses || h != hits+2) {
			t.Errorf("%s e=%g: a warm pair made %d hits and %d misses, want 2 and 0", name, c.e, h-hits, m-misses)
		}
		check("warm base", true)
	}

	// A base search that fails fails the pair, as the first of two
	// separate solves would.
	w := make([]float64, maxBeliefAges+100)
	w[0], w[len(w)-1] = 1, 1
	defective := mustEmpirical(t, w)
	_, want := OptimizeClustering(defective, 0.5, p, quickClustering)
	ResetPolicyCache()
	gotBase, gotCapped, err := OptimizeClusteringPairCached(defective, 0.5, p, quickClustering, ClusteringOptions{CoarsePoints: 8, MaxGap: 64})
	if want == nil || err == nil || err.Error() != want.Error() || gotBase != nil || gotCapped != nil {
		t.Fatalf("defective law: pair (%v, %v, %v), separate base solve error %v", gotBase, gotCapped, err, want)
	}
	if _, misses := CacheStats(); misses != 1 {
		t.Errorf("defective law: the pair looked up %d entries after its base search failed, want 1", misses)
	}
}

// TestPairPublishesOnce: a pair publishes its shared evaluator's work
// exactly once, does less belief work than the two searches alone, and
// makes no more belief filters than one search.
func TestPairPublishesOnce(t *testing.T) {
	defer ResetPolicyCache()
	p := DefaultParams()
	d := mustPareto(t, 2, 10)
	const e = 0.75
	opts := goldenSolveOptions(d)
	work := func(pe *piEvaluator) (steps, evals int64) {
		for _, f := range pe.filters {
			steps += f.steps
		}
		return steps, pe.evaluations
	}
	pair := clusteringPair{d: d, e: e, p: p}
	if _, err := pair.base(opts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := pair.capped(opts[1]); err != nil {
		t.Fatal(err)
	}
	wantSteps, wantEvals := work(pair.pe)
	// The capped search's coarse pass walks on the filters the base
	// search made: three in all.
	if n := len(pair.pe.filters); n != 3 {
		t.Errorf("the pair's searches made %d belief filters, want 3", n)
	}
	var aloneSteps int64
	for _, o := range opts {
		_, pe, err := optimizeClustering(d, e, p, o)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := work(pe)
		aloneSteps += s
	}
	if wantSteps >= aloneSteps {
		t.Errorf("the pair ran %d belief updates, the two searches alone %d", wantSteps, aloneSteps)
	}

	ResetPolicyCache()
	steps0, evals0 := obs.CorePIBeliefSteps.Load(), obs.CorePIEvaluations.Load()
	if _, _, err := OptimizeClusteringPairCached(d, e, p, opts[0], opts[1]); err != nil {
		t.Fatal(err)
	}
	if steps, evals := obs.CorePIBeliefSteps.Load()-steps0, obs.CorePIEvaluations.Load()-evals0; steps != wantSteps || evals != wantEvals {
		t.Errorf("the pair published %d belief updates and %d evaluations, its evaluator ran %d and %d",
			steps, evals, wantSteps, wantEvals)
	}
	pair.publish()
	before := obs.CorePIBeliefSteps.Load()
	pair.publish()
	if obs.CorePIBeliefSteps.Load() != before {
		t.Error("a second publish counted the pair's work again")
	}
}

// TestValidMatchesValidate: the allocation-free check accepts exactly the
// policies Validate accepts, and allocates nothing on a rejection.
func TestValidMatchesValidate(t *testing.T) {
	nan := math.NaN()
	for _, cp := range []ClusteringPolicy{
		{N1: 1, N2: 1, N3: 2, C1: 1, C2: 1, C3: 1},
		{N1: 3, N2: 5, N3: 40, C1: 0, C2: 0.5, C3: 1},
		{N1: 0, N2: 1, N3: 2},
		{N1: 2, N2: 1, N3: 3},
		{N1: 1, N2: 2, N3: 2},
		{N1: 1, N2: 1, N3: 2, C1: -1e-300},
		{N1: 1, N2: 1, N3: 2, C2: 1 + 1e-15},
		{N1: 1, N2: 1, N3: 2, C3: nan},
		{N1: 1, N2: 1, N3: 2, C1: math.Inf(1)},
	} {
		if cp.valid() != (cp.Validate() == nil) {
			t.Errorf("%+v: valid() = %t, Validate() = %v", cp, cp.valid(), cp.Validate())
		}
	}
	bad := ClusteringPolicy{N1: 2, N2: 1, N3: 3}
	if n := testing.AllocsPerRun(100, func() { _ = bad.valid() }); n != 0 {
		t.Errorf("valid allocates %v times per call", n)
	}
}

// FuzzResumeMatchesWalk applies TestResumeMatchesFreshWalk's check to a
// fuzzed law — an Empirical PMF over at most 64 slots — and a fuzzed
// policy sequence: a deterministic incumbent that climbs through its
// first valid neighbour at each of a few shrinking steps, then the
// fractional variants of where it ends and of a fractional twin, all on
// one evaluator.
func FuzzResumeMatchesWalk(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 3}, uint16(0), uint16(16), uint16(23), uint8(5), 0.95)
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 3}, uint16(15), uint16(2), uint16(95), uint8(3), 0.377)
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 255}, uint16(3), uint16(0), uint16(0), uint8(1), 0.5)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(40), uint16(60), uint16(300), uint8(31), 1e-9)
	f.Fuzz(func(t *testing.T, weights []byte, n1, hot, gap uint16, step uint8, c float64) {
		if len(weights) > 64 {
			weights = weights[:64]
		}
		w := make([]float64, len(weights))
		for i, x := range weights {
			w[i] = float64(x)
		}
		d, err := dist.NewEmpirical(w)
		if err != nil {
			return
		}
		if !validProb(c) {
			c = 0.5
		}
		pe := newPIEvaluator(d, DefaultParams())
		cur := ClusteringPolicy{N1: 1 + int(n1%300), C1: 1, C2: 1, C3: 1}
		cur.N2 = cur.N1 + int(hot%200)
		cur.N3 = cur.N2 + 1 + int(gap%600)
		for s := 1 + int(step%32); s >= 1; s /= 2 {
			next := cur
			for _, nb := range climbNeighbors(cur, s) {
				if !nb.cp.valid() {
					continue
				}
				checkResume(t, pe, d, cur, nb)
				if next == cur {
					next = nb.cp
				}
			}
			cur = next
		}
		frac := cur
		frac.C3 = c
		for _, trunk := range []ClusteringPolicy{cur, frac} {
			for _, v := range boundaryVariants(trunk) {
				if !v.ok {
					continue
				}
				for _, x := range []float64{0, c, 1} {
					checkResume(t, pe, d, trunk, resumePoint{v.at(x), v.from})
				}
			}
		}
	})
}

// TestRegionKey: deterministic region policies pack their bounds into
// three 21-bit fields of distinct words;
// fractional policies and bounds past 21 bits take the whole-policy memo,
// and a memoized ErrNoRenewal comes back as ErrNoRenewal.
func TestRegionKey(t *testing.T) {
	seen := map[uint64]ClusteringPolicy{}
	for _, n := range [][3]int{{1, 1, 2}, {1, 2, 1}, {2, 1, 1}, {7, 300, 812}, {812, 300, 7}, {1<<21 - 1, 1<<21 - 1, 1<<21 - 1}} {
		cp := ClusteringPolicy{N1: n[0], N2: n[1], N3: n[2], C1: 1, C2: 1, C3: 1}
		k, ok := regionKey(cp)
		if !ok {
			t.Fatalf("%+v: no region key", cp)
		}
		const field = 1<<21 - 1
		if got := [3]int{int(k & field), int(k >> 21 & field), int(k >> 42)}; got != n {
			t.Fatalf("%+v packed into %#x, whose fields read %v", cp, k, got)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("%+v and %+v share the key %#x", cp, prev, k)
		}
		seen[k] = cp
	}
	det := ClusteringPolicy{N1: 3, N2: 5, N3: 9, C1: 1, C2: 1, C3: 1}
	for _, cp := range []ClusteringPolicy{
		{N1: 3, N2: 5, N3: 9, C1: 0.5, C2: 1, C3: 1},
		{N1: 3, N2: 5, N3: 9, C1: 1, C2: 0, C3: 1},
		{N1: 3, N2: 5, N3: 9, C1: 1, C2: 1, C3: math.Nextafter(1, 0)},
		{N1: 3, N2: 5, N3: 1 << 21, C1: 1, C2: 1, C3: 1},
		{N1: -1, N2: 5, N3: 9, C1: 1, C2: 1, C3: 1},
	} {
		if k, ok := regionKey(cp); ok {
			t.Errorf("%+v packed into %#x, want the whole-policy memo", cp, k)
		}
	}
	if _, ok := regionKey(det); !ok {
		t.Fatalf("%+v: no region key", det)
	}
	m := piMemo{}
	if ev, err := m.eval(1); err != ErrNoRenewal || ev != (PIEval{}) {
		t.Errorf("a memoized ErrNoRenewal read back as %+v, %v", ev, err)
	}
}
