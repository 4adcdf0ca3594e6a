package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTallyBasic(t *testing.T) {
	var ta Tally
	for _, x := range []float64{1, 2, 3, 4, 5} {
		ta.Add(x)
	}
	if ta.Count() != 5 {
		t.Fatalf("count = %d", ta.Count())
	}
	if !almostEqual(ta.Mean(), 3, 1e-12) {
		t.Fatalf("mean = %v", ta.Mean())
	}
	if !almostEqual(ta.Variance(), 2.5, 1e-12) {
		t.Fatalf("variance = %v", ta.Variance())
	}
	if ta.Min() != 1 || ta.Max() != 5 {
		t.Fatalf("min/max = %v/%v", ta.Min(), ta.Max())
	}
}

func TestTallyEmpty(t *testing.T) {
	var ta Tally
	if ta.Mean() != 0 || ta.Variance() != 0 || ta.StdDev() != 0 || ta.StdError() != 0 {
		t.Fatal("empty tally should report zeros")
	}
}

func TestTallySingleObservation(t *testing.T) {
	var ta Tally
	ta.Add(7)
	if ta.Variance() != 0 {
		t.Fatalf("variance of single observation = %v", ta.Variance())
	}
	if ta.Min() != 7 || ta.Max() != 7 {
		t.Fatal("min/max wrong for single observation")
	}
}

func TestTallyMerge(t *testing.T) {
	var a, b, all Tally
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	for i, x := range xs {
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d want %d", a.Count(), all.Count())
	}
	if !almostEqual(a.Mean(), all.Mean(), 1e-12) {
		t.Fatalf("merged mean %v want %v", a.Mean(), all.Mean())
	}
	if !almostEqual(a.Variance(), all.Variance(), 1e-9) {
		t.Fatalf("merged variance %v want %v", a.Variance(), all.Variance())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merged min/max mismatch")
	}
}

func TestTallyMergeWithEmpty(t *testing.T) {
	var a, empty Tally
	a.Add(1)
	a.Add(2)
	before := a
	a.Merge(&empty)
	if a != before {
		t.Fatal("merging an empty tally changed the receiver")
	}
	var c Tally
	c.Merge(&a)
	if c.Count() != 2 || !almostEqual(c.Mean(), 1.5, 1e-12) {
		t.Fatal("merging into an empty tally lost data")
	}
}

func TestTallyConfidenceIntervalShrinks(t *testing.T) {
	rng := xrand.New(1)
	var small, large Tally
	for i := 0; i < 100; i++ {
		small.Add(rng.Float64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(rng.Float64())
	}
	if large.ConfidenceInterval(0.95) >= small.ConfidenceInterval(0.95) {
		t.Fatal("confidence interval did not shrink with more samples")
	}
}

// Property: the Welford mean always lies between min and max.
// Inputs are mapped into a bounded range so the property is not confounded by
// float64 overflow, which the simulator's observation magnitudes never reach.
func TestQuickTallyMeanBounded(t *testing.T) {
	f := func(xs []int32) bool {
		var ta Tally
		for _, x := range xs {
			ta.Add(float64(x) / 1000)
		}
		if ta.Count() == 0 {
			return true
		}
		return ta.Mean() >= ta.Min()-1e-9 && ta.Mean() <= ta.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is never negative (within floating-point tolerance).
func TestQuickTallyVarianceNonNegative(t *testing.T) {
	f := func(xs []int32) bool {
		var ta Tally
		for _, x := range xs {
			ta.Add(float64(x) / 1000)
		}
		return ta.Variance() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeightedConstant(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 3)
	if !almostEqual(w.MeanAt(10), 3, 1e-12) {
		t.Fatalf("mean of constant process = %v", w.MeanAt(10))
	}
}

func TestTimeWeightedStep(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 0)
	w.Set(5, 10) // value 0 on [0,5), 10 on [5,10)
	if !almostEqual(w.MeanAt(10), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", w.MeanAt(10))
	}
	if w.Max() != 10 {
		t.Fatalf("max = %v", w.Max())
	}
}

func TestTimeWeightedMeanAt(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 2)
	w.Set(4, 6)
	// At time 8: 2 for 4 units, 6 for 4 units => mean 4.
	if !almostEqual(w.MeanAt(8), 4, 1e-12) {
		t.Fatalf("MeanAt(8) = %v", w.MeanAt(8))
	}
}

func TestTimeWeightedReset(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 100)
	w.Set(50, 100)
	w.Reset(50, 1)
	if !almostEqual(w.MeanAt(60), 1, 1e-12) {
		t.Fatalf("mean after reset = %v", w.MeanAt(60))
	}
}

func TestTimeWeightedBackwardsTimePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on backwards time")
		}
		if msg := fmt.Sprint(r); msg != "stats: TimeWeighted.Set time went backwards: 5 < 10" {
			t.Fatalf("panic message %q", msg)
		}
	}()
	var w TimeWeighted
	w.Set(10, 1)
	w.Set(5, 2)
}

func TestQuantilesExact(t *testing.T) {
	var q Quantiles
	for i := 100; i >= 1; i-- {
		q.Add(float64(i))
	}
	if len(q.Values()) != 100 {
		t.Fatalf("count = %d", len(q.Values()))
	}
	if got := q.Value(0); got != 1 {
		t.Fatalf("min = %v", got)
	}
	if got := q.Value(1); got != 100 {
		t.Fatalf("max = %v", got)
	}
	med := q.Value(0.5)
	if med < 50 || med > 51 {
		t.Fatalf("median = %v", med)
	}
}

func TestQuantilesEmpty(t *testing.T) {
	var q Quantiles
	if q.Value(0.5) != 0 {
		t.Fatal("empty quantiles should return 0")
	}
}

func TestQuantilesInterleavedAddAndQuery(t *testing.T) {
	var q Quantiles
	q.Add(5)
	q.Add(1)
	if q.Value(0) != 1 {
		t.Fatal("min wrong after first sort")
	}
	q.Add(0.5)
	if q.Value(0) != 0.5 {
		t.Fatal("min wrong after re-sort")
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	for _, p := range []float64{0.6, 0.75, 0.9, 0.975, 0.995} {
		if !almostEqual(NormalQuantile(p), -NormalQuantile(1-p), 1e-6) {
			t.Fatalf("quantile not symmetric at %v", p)
		}
	}
	if !almostEqual(NormalQuantile(0.975), 1.959964, 1e-3) {
		t.Fatalf("q(0.975) = %v", NormalQuantile(0.975))
	}
	if !almostEqual(NormalQuantile(0.5), 0, 1e-9) {
		t.Fatalf("q(0.5) = %v", NormalQuantile(0.5))
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("extreme quantiles should be infinite")
	}
}

func TestSeriesSlope(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.AddPoint(float64(i), 2*float64(i)+1)
	}
	if !almostEqual(s.LinearSlope(), 2, 1e-9) {
		t.Fatalf("slope = %v", s.LinearSlope())
	}
}

func TestSeriesSlopeDegenerate(t *testing.T) {
	var s Series
	if s.LinearSlope() != 0 {
		t.Fatal("slope of empty series should be 0")
	}
	s.AddPoint(1, 5)
	if s.LinearSlope() != 0 {
		t.Fatal("slope of single point should be 0")
	}
	s.AddPoint(1, 7) // identical x values
	if s.LinearSlope() != 0 {
		t.Fatal("slope with zero x-variance should be 0")
	}
}

func TestSeriesFlatSlopeNearZero(t *testing.T) {
	var s Series
	rng := xrand.New(3)
	for i := 0; i < 200; i++ {
		s.AddPoint(float64(i), 5+0.01*(rng.Float64()-0.5))
	}
	if math.Abs(s.LinearSlope()) > 1e-3 {
		t.Fatalf("slope of flat noisy series = %v", s.LinearSlope())
	}
}

func BenchmarkTallyAdd(b *testing.B) {
	var ta Tally
	for i := 0; i < b.N; i++ {
		ta.Add(float64(i & 1023))
	}
}

func BenchmarkTimeWeightedSet(b *testing.B) {
	var w TimeWeighted
	for i := 0; i < b.N; i++ {
		w.Set(float64(i), float64(i&7))
	}
}

func TestQuantilesQuickselectMatchesFullSort(t *testing.T) {
	// The first few Value calls use quickselect, later calls the cached full
	// sort; both must return identical exact order statistics.
	rng := xrand.New(99)
	var a, b Quantiles
	for i := 0; i < 10007; i++ {
		x := rng.Float64() * 1000
		a.Add(x)
		b.Add(x)
	}
	ps := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	var fromSelect []float64
	for _, p := range ps[:4] {
		fromSelect = append(fromSelect, a.Value(p)) // quickselect regime
	}
	for i := 0; i < 10; i++ {
		b.Value(0.5) // force b into the sorted regime
	}
	for i, p := range ps[:4] {
		if got := b.Value(p); got != fromSelect[i] {
			t.Fatalf("p=%v: quickselect %v != sorted %v", p, fromSelect[i], got)
		}
	}
	for _, p := range ps[4:] {
		if got, want := a.Value(p), b.Value(p); got != want {
			t.Fatalf("p=%v: %v != %v (a crossed into sorted regime)", p, got, want)
		}
	}
}
