package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// newSketch returns an empty sketch with relative-error bound alpha.
func newSketch(alpha float64) *DDSketch {
	s := new(DDSketch)
	s.Reset(alpha)
	return s
}

// sketchTestDistributions are the adversarial value streams the relative-error
// and merge properties are checked on: heavy-tailed (Pareto-like), constant
// (every value in one bucket), bimodal (two far-apart clusters), a stream
// containing exact zeros, and uniform delays in the simulators' typical range.
var sketchTestDistributions = []struct {
	name string
	gen  func(rng *xrand.Rand) float64
}{
	{"heavy-tailed", func(rng *xrand.Rand) float64 {
		// Pareto with tail index 1.1: p999 is orders of magnitude above p50.
		return math.Pow(1-rng.Float64(), -1/1.1)
	}},
	{"constant", func(rng *xrand.Rand) float64 { return 42.5 }},
	{"bimodal", func(rng *xrand.Rand) float64 {
		if rng.Float64() < 0.7 {
			return 1 + rng.Float64()
		}
		return 1e4 + 1e3*rng.Float64()
	}},
	{"with-zeros", func(rng *xrand.Rand) float64 {
		if rng.Float64() < 0.1 {
			return 0
		}
		return 1 + 10*rng.Float64()
	}},
	{"uniform-delays", func(rng *xrand.Rand) float64 { return 1 + 99*rng.Float64() }},
}

// TestDDSketchRelativeErrorGuarantee checks the documented bound: for every
// queried quantile, the estimate is within alpha of the exact order statistic
// of rank floor(q*(n-1)) — and exact (up to SketchMinValue) for ranks in the
// zero bucket.
func TestDDSketchRelativeErrorGuarantee(t *testing.T) {
	quantiles := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for _, alpha := range []float64{0.01, 0.05} {
		for _, dist := range sketchTestDistributions {
			rng := xrand.NewStream(7, 0x5EED)
			s := newSketch(alpha)
			xs := make([]float64, 0, 20000)
			for i := 0; i < 20000; i++ {
				x := dist.gen(rng)
				s.Add(x)
				xs = append(xs, x)
			}
			sort.Float64s(xs)
			for _, q := range quantiles {
				got := s.Quantile(q)
				exact := xs[int(q*float64(len(xs)-1))]
				if exact <= SketchMinValue {
					if math.Abs(got-exact) > SketchMinValue {
						t.Errorf("%s alpha=%v q=%v: zero-bucket estimate %v vs exact %v", dist.name, alpha, q, got, exact)
					}
					continue
				}
				// A value exactly on a bucket boundary may round into the
				// neighbouring bucket, whose estimate still meets the alpha
				// bound up to floating-point slop.
				if relErr := math.Abs(got-exact) / exact; relErr > alpha*(1+1e-9)+1e-12 {
					t.Errorf("%s alpha=%v q=%v: estimate %v vs exact %v (rel err %v > %v)",
						dist.name, alpha, q, got, exact, relErr, alpha)
				}
			}
		}
	}
}

// TestDDSketchMergePartitionInvariance is the core merge property: splitting
// one observation stream into arbitrarily many parts, adding each part to its
// own sketch and merging the parts in an arbitrary tree order produces state
// byte-identical to the sequential sketch. This covers associativity and
// commutativity at once (every merge tree is some parenthesisation of some
// permutation).
func TestDDSketchMergePartitionInvariance(t *testing.T) {
	const alpha = 0.02
	property := func(seed uint64, nParts uint8, swap bool) bool {
		rng := xrand.NewStream(seed, 99)
		dist := sketchTestDistributions[int(seed%uint64(len(sketchTestDistributions)))]
		n := 500 + int(seed%1500)
		parts := int(nParts)%7 + 2

		whole := newSketch(alpha)
		split := make([]*DDSketch, parts)
		for i := range split {
			split[i] = newSketch(alpha)
		}
		for i := 0; i < n; i++ {
			x := dist.gen(rng)
			whole.Add(x)
			// Deterministic but irregular part assignment.
			split[(i*2654435761)%parts].Add(x)
		}

		// Merge the parts pairwise in a tree whose shape depends on swap, to
		// exercise different association orders; commutativity is exercised by
		// reversing the list.
		list := split
		if swap {
			for i, j := 0, len(list)-1; i < j; i, j = i+1, j-1 {
				list[i], list[j] = list[j], list[i]
			}
		}
		for len(list) > 1 {
			next := make([]*DDSketch, 0, (len(list)+1)/2)
			for i := 0; i+1 < len(list); i += 2 {
				list[i].Merge(list[i+1])
				next = append(next, list[i])
			}
			if len(list)%2 == 1 {
				next = append(next, list[len(list)-1])
			}
			list = next
		}
		return sketchState(list[0]) == sketchState(whole)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// sketchState renders a sketch's full state with empty edge buckets trimmed,
// so two sketches holding the same observation multiset render identically
// however they were split, added and merged.
func sketchState(s *DDSketch) string {
	head := fmt.Sprintf("alpha=%v n=%d zeros=%d min=%v max=%v", s.alpha, s.count, s.zeros, s.min, s.max)
	lo, hi, ok := s.nonZeroRange()
	if !ok {
		return head
	}
	return fmt.Sprintf("%s first=%d buckets=%v", head, int(s.minKey)+lo, s.buckets[lo:hi+1])
}

// TestDDSketchMergeEmptyAndUnconfigured pins the edge semantics: merging an
// empty sketch is a no-op, merging into an unconfigured (zero-alpha) sketch
// adopts the source's resolution, and merging mismatched alphas panics.
func TestDDSketchMergeEmptyAndUnconfigured(t *testing.T) {
	a := newSketch(0.01)
	a.Add(3)
	before := sketchState(a)
	a.Merge(newSketch(0.01))
	a.Merge(nil)
	if sketchState(a) != before {
		t.Fatal("merging an empty or nil sketch changed the state")
	}

	var adopt DDSketch
	adopt.Merge(a)
	if adopt.Alpha() != 0.01 || adopt.Count() != 1 {
		t.Fatalf("unconfigured merge: alpha=%v count=%d", adopt.Alpha(), adopt.Count())
	}
	if sketchState(&adopt) != before {
		t.Fatal("unconfigured merge is not byte-identical to the source")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched alphas did not panic")
		}
	}()
	b := newSketch(0.05)
	b.Add(1)
	a.Merge(b)
}

// TestDDSketchEmptyAndClear pins the empty-sketch contract (NaN quantiles,
// zero count) and that Clear empties without changing alpha.
func TestDDSketchEmptyAndClear(t *testing.T) {
	s := newSketch(0.01)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty sketch quantile is not NaN")
	}
	s.Add(5)
	s.Add(7)
	s.Clear()
	if s.Count() != 0 || s.Alpha() != 0.01 || !math.IsNaN(s.Quantile(0.99)) {
		t.Fatalf("Clear left count=%d alpha=%v", s.Count(), s.Alpha())
	}
	empty := newSketch(0.01)
	if sketchState(s) != sketchState(empty) {
		t.Fatal("cleared sketch state differs from a fresh sketch")
	}
}

// TestDDSketchAddZeroAllocs pins the hot-path contract in the style of
// slotsim.TestMillionNodeSteadyStateZeroAllocs: once the sketch has seen the
// value range, further Adds perform no allocation at all.
func TestDDSketchAddZeroAllocs(t *testing.T) {
	s := newSketch(0.01)
	rng := xrand.NewStream(11, 5)
	// Warm the bucket range: values spanning the full range the measurement
	// loop below will produce, plus the zero bucket.
	s.Add(0)
	s.Add(0.5)
	s.Add(2000)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = 1 + 1000*rng.Float64()
	}
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		for k := 0; k < 256; k++ {
			s.Add(xs[i%len(xs)])
			i++
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add allocates: %v allocs per 256 observations", allocs)
	}
}

// TestDDSketchInvalidAlpha pins Reset's contract.
func TestDDSketchInvalidAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -0.1, 0.5, 1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v did not panic", alpha)
				}
			}()
			new(DDSketch).Reset(alpha)
		}()
	}
}
