package stats

import (
	"fmt"
	"math"
)

// SketchMinValue is the smallest positive value the sketch's logarithmic
// buckets resolve. Observations at or below it (zero-slot deliveries, for
// example) are counted in a dedicated zero bucket and reported as the exact
// sketch minimum, with absolute error at most SketchMinValue instead of a
// relative guarantee — a relative bound is meaningless at zero.
const SketchMinValue = 1e-9

// sketchGrowPad is the slack added on each side when the bucket array has to
// cover a new key, so a value stream that creeps across bucket boundaries
// reallocates O(log n) times, not per observation. Together with the
// doubling append below it makes Add allocation-free in steady state.
const sketchGrowPad = 16

// DDSketch is a mergeable quantile sketch with a guaranteed relative error:
// Quantile(q) returns a value within a factor (1 ± Alpha) of an exact
// empirical q-quantile, using O(log(max/min)/Alpha) memory instead of one
// float per observation. Buckets are logarithmic — bucket k holds values in
// (gamma^(k-1), gamma^k] with gamma = (1+Alpha)/(1-Alpha) — so the bucket
// midpoint (in log space) is within Alpha of every value in the bucket.
//
// The sketch is built for this repository's determinism contract:
//
//   - Add is allocation-free in steady state (the bucket array grows only
//     when the observed value range does), so it can sit on the kernels'
//     delivery hot path next to the Welford tallies.
//   - Merge adds integer bucket counts, so it is exact, associative and
//     commutative: merging shard sketches in any order yields bit-identical
//     state, which the property tests compare.
//   - Quantile walks integer counts; for a given set of observations the
//     answer is a pure function of the multiset, never of arrival or merge
//     order.
//
// The zero value is not usable; construct with NewDDSketch or Reset.
type DDSketch struct {
	alpha    float64
	gamma    float64
	logGamma float64

	count uint64
	zeros uint64
	min   float64
	max   float64

	// buckets[i] counts values with key minKey+i; key(x) = ceil(log_gamma x).
	minKey  int32
	buckets []uint64
}

// NewDDSketch returns a sketch with the given relative-error bound alpha,
// which must lie in (0, 0.5).
func NewDDSketch(alpha float64) *DDSketch {
	s := new(DDSketch)
	s.Reset(alpha)
	return s
}

// Reset re-initialises the sketch for relative error alpha (in (0, 0.5)),
// keeping the backing bucket array so pooled collectors do not reallocate.
func (s *DDSketch) Reset(alpha float64) {
	if !(alpha > 0 && alpha < 0.5) {
		panic(fmt.Sprintf("stats: DDSketch alpha %v outside (0, 0.5)", alpha))
	}
	s.alpha = alpha
	s.gamma = (1 + alpha) / (1 - alpha)
	s.logGamma = math.Log(s.gamma)
	s.Clear()
}

// Clear empties the sketch, keeping its alpha and backing storage.
func (s *DDSketch) Clear() {
	s.count = 0
	s.zeros = 0
	s.min = 0
	s.max = 0
	s.minKey = 0
	for i := range s.buckets {
		s.buckets[i] = 0
	}
	s.buckets = s.buckets[:0]
}

// Alpha returns the sketch's relative-error bound.
func (s *DDSketch) Alpha() float64 { return s.alpha }

// Count returns the number of observations recorded.
func (s *DDSketch) Count() int64 { return int64(s.count) }

// key returns the bucket key of a value above SketchMinValue.
func (s *DDSketch) key(x float64) int32 {
	return int32(math.Ceil(math.Log(x) / s.logGamma))
}

// Add records one observation. Values at or below SketchMinValue (including
// zero) land in the zero bucket; everything else lands in its logarithmic
// bucket. Steady-state calls perform no allocation.
func (s *DDSketch) Add(x float64) {
	s.count++
	if s.count == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	if x <= SketchMinValue {
		s.zeros++
		return
	}
	k := s.key(x)
	i := int(k - s.minKey)
	if len(s.buckets) == 0 || i < 0 || i >= len(s.buckets) {
		i = s.growTo(k)
	}
	s.buckets[i]++
}

// growTo extends the bucket array to cover key k (with padding on the grown
// side) and returns k's index. It preserves existing counts.
func (s *DDSketch) growTo(k int32) int {
	if len(s.buckets) == 0 {
		s.minKey = k - sketchGrowPad
		n := 2*sketchGrowPad + 1
		if cap(s.buckets) < n {
			s.buckets = make([]uint64, n)
		} else {
			s.buckets = s.buckets[:n]
			for i := range s.buckets {
				s.buckets[i] = 0
			}
		}
		return int(k - s.minKey)
	}
	if k < s.minKey {
		newMin := k - sketchGrowPad
		shift := int(s.minKey - newMin)
		old := len(s.buckets)
		s.buckets = append(s.buckets, make([]uint64, shift)...)
		copy(s.buckets[shift:], s.buckets[:old])
		for i := 0; i < shift; i++ {
			s.buckets[i] = 0
		}
		s.minKey = newMin
	} else if need := int(k-s.minKey) + 1; need > len(s.buckets) {
		s.buckets = append(s.buckets, make([]uint64, need+sketchGrowPad-len(s.buckets))...)
	}
	return int(k - s.minKey)
}

// Merge folds another sketch into s, as if s had observed both streams. The
// two sketches must share the same alpha (merging sketches with different
// bucket bases has no exact meaning). Because bucket counts are integers,
// Merge is exact: any merge order over any partition of the observations
// produces bit-identical state.
func (s *DDSketch) Merge(o *DDSketch) {
	if o == nil || o.count == 0 {
		return
	}
	if s.alpha == 0 {
		// Unconfigured receiver adopts the other sketch's resolution.
		s.Reset(o.alpha)
	}
	if s.alpha != o.alpha {
		panic(fmt.Sprintf("stats: cannot merge DDSketch alpha %v into alpha %v", o.alpha, s.alpha))
	}
	if s.count == 0 {
		s.min, s.max = o.min, o.max
	} else {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	s.count += o.count
	s.zeros += o.zeros
	lo, hi, ok := o.nonZeroRange()
	if !ok {
		return
	}
	s.growTo(o.minKey + int32(lo))
	s.growTo(o.minKey + int32(hi))
	base := int(o.minKey - s.minKey)
	for i := lo; i <= hi; i++ {
		s.buckets[base+i] += o.buckets[i]
	}
}

// Clone returns an independent copy of the sketch.
func (s *DDSketch) Clone() *DDSketch {
	c := *s
	c.buckets = append([]uint64(nil), s.buckets...)
	return &c
}

// nonZeroRange returns the index range [lo, hi] of occupied buckets.
func (s *DDSketch) nonZeroRange() (lo, hi int, ok bool) {
	lo, hi = 0, len(s.buckets)-1
	for lo < len(s.buckets) && s.buckets[lo] == 0 {
		lo++
	}
	if lo == len(s.buckets) {
		return 0, 0, false
	}
	for s.buckets[hi] == 0 {
		hi--
	}
	return lo, hi, true
}

// Quantile returns an estimate of the q-quantile (q clamped to [0, 1]) with
// guaranteed relative error: the returned value v satisfies |v - x| <=
// Alpha*x for the exact empirical quantile x (the order statistic of rank
// floor(q*(Count-1))) whenever x > SketchMinValue; ranks that fall in the
// zero bucket return the exact minimum. The estimate is clamped to the exact
// observed [min, max]. An empty sketch returns NaN.
func (s *DDSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.count-1)
	cum := float64(s.zeros)
	if cum > rank {
		return s.min
	}
	for i, c := range s.buckets {
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum > rank {
			k := float64(int32(i) + s.minKey)
			v := 2 * math.Exp(k*s.logGamma) / (1 + s.gamma)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}
