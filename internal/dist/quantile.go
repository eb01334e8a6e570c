package dist

import (
	"eventcap/internal/rng"
)

// InverseSampler is implemented by distributions whose Sample consumes
// exactly one uniform and maps it to a gap through a deterministic,
// nondecreasing function of u — the single-draw inversion samplers
// (Weibull, Pareto). Exposing that map lets a batch precompute an
// exact threshold table (QuantileTable) that reproduces Sample draw for
// draw without the per-draw transcendentals.
//
// The contract, relied on for byte-identical replay:
//
//	Sample(src) == SampleU(src.Float64())   (consuming one uniform)
//	u <= v  =>  SampleU(u) <= SampleU(v)    (nondecreasing on the u grid)
type InverseSampler interface {
	Interarrival
	// SampleU returns the gap Sample would produce had its single uniform
	// draw returned u in [0, 1).
	SampleU(u float64) int
}

// quantileGridBits is the precision of rng.Source.Float64: every uniform
// is k/2^53 for integer k, so threshold bisection over that grid locates
// the exact float64 boundary between adjacent gaps.
const quantileGridBits = 53

// quantileMaxGaps caps the number of tabulated gap values. Beyond the
// table the (vanishing) tail mass falls back to direct SampleU
// evaluation, keeping the build cost bounded for heavy-tailed
// distributions whose largest representable gap is enormous.
const quantileMaxGaps = 1024

// quantileGuideSize is the number of buckets in the O(1) lookup guide.
const quantileGuideSize = 1024

// QuantileTable precomputes the exact u-thresholds of an InverseSampler
// so each draw costs one uniform and a short table scan instead of the
// sampler's logarithms and powers. Sample is byte-identical to the
// underlying sampler's Sample by construction: cut[j] is the smallest
// value on the 2^53 uniform grid whose gap exceeds minGap+j, found by
// bisecting SampleU itself.
//
// The table is immutable after construction and safe for concurrent
// readers — one table serves every replication of a batch.
type QuantileTable struct {
	src InverseSampler
	// minGap is SampleU(0), the smallest producible gap.
	minGap int
	// cut[j] is the smallest grid uniform u with SampleU(u) > minGap+j;
	// entries are nondecreasing. A draw's gap is minGap plus the number
	// of cuts at or below u; draws beyond the last cut fall back to
	// SampleU.
	cut []float64
	// guide[b] is a starting index into cut for uniforms near b/guideSize;
	// the scan corrects in both directions, so the guide only affects
	// speed, never the result.
	guide []int32
}

// NewQuantileTable builds the threshold table for s. The build bisects
// SampleU once per tabulated gap (~53 evaluations each); for the paper's
// workloads that is well under a millisecond, amortized across a whole
// batch.
func NewQuantileTable(s InverseSampler) *QuantileTable {
	const grid = uint64(1) << quantileGridBits
	t := &QuantileTable{src: s, minGap: s.SampleU(0)}
	maxU := float64(grid-1) / float64(grid)
	top := s.SampleU(maxU)
	if top-t.minGap > quantileMaxGaps {
		top = t.minGap + quantileMaxGaps
	}
	if top <= t.minGap {
		// Degenerate support: every uniform maps to minGap (or the far
		// tail handled by the fallback); nothing to tabulate.
		top = t.minGap
	}
	t.cut = make([]float64, 0, top-t.minGap)
	lo := uint64(0) // invariant: SampleU(lo/grid) <= g for the current g
	for g := t.minGap; g < top; g++ {
		// Find the smallest k in (lo, grid) with SampleU(k/grid) > g.
		hi := grid - 1
		if s.SampleU(float64(hi)/float64(grid)) <= g {
			// The whole grid stays at or below g (cap rounding); every
			// remaining cut would sit past the grid, so stop here.
			break
		}
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if s.SampleU(float64(mid)/float64(grid)) > g {
				hi = mid
			} else {
				lo = mid
			}
		}
		t.cut = append(t.cut, float64(hi)/float64(grid))
		lo = hi - 1
	}
	t.guide = make([]int32, quantileGuideSize+1)
	j := 0
	for b := 0; b <= quantileGuideSize; b++ {
		low := float64(b) / quantileGuideSize
		for j < len(t.cut) && t.cut[j] <= low {
			j++
		}
		t.guide[b] = int32(j)
	}
	return t
}

// Sample draws a gap, consuming exactly one uniform from src and
// returning exactly what t's underlying sampler would have returned for
// that uniform.
func (t *QuantileTable) Sample(src *rng.Source) int {
	return t.Gap(src.Float64())
}

// Gap maps one uniform to its gap (the tabulated form of SampleU).
func (t *QuantileTable) Gap(u float64) int {
	j := int(t.guide[int(u*quantileGuideSize)])
	for j < len(t.cut) && u >= t.cut[j] {
		j++
	}
	for j > 0 && u < t.cut[j-1] {
		j--
	}
	if j == len(t.cut) && len(t.cut) > 0 && u >= t.cut[j-1] {
		// Beyond the tabulated range: the far tail (or a capped build)
		// falls back to direct evaluation.
		return t.src.SampleU(u)
	}
	return t.minGap + j
}

// AsInverseSampler returns d as an InverseSampler when its Sample is a
// single-uniform inversion, nil otherwise — the eligibility probe batch
// engines use before building a QuantileTable.
func AsInverseSampler(d Interarrival) InverseSampler {
	if s, ok := d.(InverseSampler); ok {
		return s
	}
	return nil
}
