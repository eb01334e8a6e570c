package eventcap_test

import (
	"runtime/debug"
	"sort"
	"testing"
)

// steadyAllocs is testing.AllocsPerRun(3, f) with the garbage collector
// off. The steady-state gates compare two such counts (a long run minus
// a short one), and a GC cycle that starts inside the measured window
// charges the runtime's own bookkeeping to f, so a clean loop would
// intermittently read as allocating. Turning GC off hides no allocation
// f itself makes: AllocsPerRun counts mallocs, not collections.
func steadyAllocs(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(3, f)
}

// This file is the shared methodology for paired overhead benchmarks
// (BENCH_obs.json, BENCH_trace.json). The first BENCH_obs record was
// produced by taking the minimum of five measurements per side
// independently, which let the instrumented side win the noise lottery
// and reported a negative overhead (-4.6%) — an obviously unphysical
// number. The fix is to keep the pairing: measure off/on in interleaved
// rounds, compute the overhead per round, and report the median round
// alongside an explicit noise floor, so a record says both "what the
// overhead is" and "how much the machine was wobbling while we asked".

// overheadRound is one interleaved off/on measurement pair.
type overheadRound struct {
	OffNsPerOp  int64   `json:"off_ns_per_op"`
	OnNsPerOp   int64   `json:"on_ns_per_op"`
	OverheadPct float64 `json:"overhead_pct"`
}

// overheadMeasurement summarizes ≥5 interleaved rounds of a paired
// off/on benchmark. MedianOverheadPct is the median of the per-round
// overheads (robust to a single disturbed round in either direction);
// NoiseFloorPct is the spread of the *uninstrumented* side across
// rounds, as a percentage of its median — overhead claims below the
// noise floor are indistinguishable from machine drift, so budget
// checks must allow median ≤ budget + noise floor.
type overheadMeasurement struct {
	Rounds            []overheadRound `json:"rounds"`
	MedianOffNsPerOp  int64           `json:"median_off_ns_per_op"`
	MedianOnNsPerOp   int64           `json:"median_on_ns_per_op"`
	MedianOverheadPct float64         `json:"median_overhead_pct"`
	NoiseFloorPct     float64         `json:"noise_floor_pct"`
}

func medianInt64(vs []int64) int64 {
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianFloat(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summarizeRounds computes the measurement record from raw rounds
// (split out from measureOverhead so the math is unit-testable without
// running benchmarks).
func summarizeRounds(rounds []overheadRound) overheadMeasurement {
	m := overheadMeasurement{Rounds: rounds}
	offs := make([]int64, len(rounds))
	ons := make([]int64, len(rounds))
	pcts := make([]float64, len(rounds))
	minOff, maxOff := rounds[0].OffNsPerOp, rounds[0].OffNsPerOp
	for i, r := range rounds {
		offs[i], ons[i], pcts[i] = r.OffNsPerOp, r.OnNsPerOp, r.OverheadPct
		if r.OffNsPerOp < minOff {
			minOff = r.OffNsPerOp
		}
		if r.OffNsPerOp > maxOff {
			maxOff = r.OffNsPerOp
		}
	}
	m.MedianOffNsPerOp = medianInt64(offs)
	m.MedianOnNsPerOp = medianInt64(ons)
	m.MedianOverheadPct = medianFloat(pcts)
	m.NoiseFloorPct = 100 * float64(maxOff-minOff) / float64(m.MedianOffNsPerOp)
	return m
}

// measureOverhead runs the off/on pair for the given number of
// interleaved rounds (≥5 enforced) and summarizes them.
func measureOverhead(rounds int, off, on func(b *testing.B)) overheadMeasurement {
	if rounds < 5 {
		rounds = 5
	}
	rs := make([]overheadRound, rounds)
	for i := range rs {
		offRes := testing.Benchmark(off)
		onRes := testing.Benchmark(on)
		rs[i] = overheadRound{
			OffNsPerOp:  offRes.NsPerOp(),
			OnNsPerOp:   onRes.NsPerOp(),
			OverheadPct: 100 * (float64(onRes.NsPerOp()) - float64(offRes.NsPerOp())) / float64(offRes.NsPerOp()),
		}
	}
	return summarizeRounds(rs)
}

// withinBudget is the gate all overhead records share: the median
// overhead may exceed the budget only by the measured noise floor.
func (m overheadMeasurement) withinBudget(budgetPct float64) bool {
	return m.MedianOverheadPct <= budgetPct+m.NoiseFloorPct
}

func TestSummarizeRoundsMath(t *testing.T) {
	rounds := []overheadRound{
		{OffNsPerOp: 100, OnNsPerOp: 101, OverheadPct: 1},
		{OffNsPerOp: 110, OnNsPerOp: 112, OverheadPct: 2}, // disturbed round
		{OffNsPerOp: 100, OnNsPerOp: 100, OverheadPct: 0},
		{OffNsPerOp: 102, OnNsPerOp: 103, OverheadPct: 1},
		{OffNsPerOp: 101, OnNsPerOp: 102, OverheadPct: 1},
	}
	m := summarizeRounds(rounds)
	if m.MedianOffNsPerOp != 101 || m.MedianOnNsPerOp != 102 {
		t.Errorf("medians off=%d on=%d, want 101/102", m.MedianOffNsPerOp, m.MedianOnNsPerOp)
	}
	if m.MedianOverheadPct != 1 {
		t.Errorf("median overhead %.3f, want 1", m.MedianOverheadPct)
	}
	// Off side spread 100..110 over median 101.
	if want := 100 * float64(10) / 101; m.NoiseFloorPct != want {
		t.Errorf("noise floor %.3f, want %.3f", m.NoiseFloorPct, want)
	}
	if !m.withinBudget(2) {
		t.Error("1%% median with ~10%% noise floor must pass a 2%% budget")
	}
	if (overheadMeasurement{MedianOverheadPct: 5, NoiseFloorPct: 0.5}).withinBudget(2) {
		t.Error("5%% median with 0.5%% noise floor must fail a 2%% budget")
	}
}
