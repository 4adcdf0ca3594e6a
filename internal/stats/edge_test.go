package stats

import (
	"math"
	"testing"
)

// TestTallyEdgeCases table-tests the degenerate inputs every Tally consumer
// must survive: no observations, a single observation, and a single value
// repeated (zero variance — including after merges, where the pooled update
// can round a mathematically zero m2 to a tiny negative float).
func TestTallyEdgeCases(t *testing.T) {
	build := func(xs ...float64) *Tally {
		tl := &Tally{}
		for _, x := range xs {
			tl.Add(x)
		}
		return tl
	}
	cases := []struct {
		name                     string
		tally                    *Tally
		n                        int64
		mean, variance, min, max float64
		stdErr, ci95             float64
	}{
		{"n=0", build(), 0, 0, 0, 0, 0, 0, 0},
		{"n=1", build(3.5), 1, 3.5, 0, 3.5, 3.5, 0, 0},
		{"n=1 negative", build(-2), 1, -2, 0, -2, -2, 0, 0},
		{"repeated value", build(7, 7, 7, 7, 7), 5, 7, 0, 7, 7, 0, 0},
		{"repeated zero", build(0, 0, 0), 3, 0, 0, 0, 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.tally
			if got.Count() != tc.n {
				t.Errorf("Count = %d, want %d", got.Count(), tc.n)
			}
			checks := []struct {
				name string
				got  float64
				want float64
			}{
				{"Mean", got.Mean(), tc.mean},
				{"Variance", got.Variance(), tc.variance},
				{"StdDev", got.StdDev(), math.Sqrt(tc.variance)},
				{"Min", got.Min(), tc.min},
				{"Max", got.Max(), tc.max},
				{"StdError", got.StdError(), tc.stdErr},
				{"CI95", got.ConfidenceInterval(0.95), tc.ci95},
			}
			for _, c := range checks {
				if c.got != c.want {
					t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
				}
				if math.IsNaN(c.got) {
					t.Errorf("%s is NaN", c.name)
				}
			}
		})
	}
}

// TestTallyMergeRepeatedValueNeverNegative pins the Variance clamp: merging
// many single-repeated-value tallies must never report a negative variance or
// a NaN standard deviation, however the floating-point rounding falls.
func TestTallyMergeRepeatedValueNeverNegative(t *testing.T) {
	for _, v := range []float64{0.1, 1.0 / 3.0, 7e-9, 1e17} {
		merged := &Tally{}
		for i := 0; i < 100; i++ {
			part := &Tally{}
			for j := 0; j < 3; j++ {
				part.Add(v)
			}
			merged.Merge(part)
		}
		if got := merged.Variance(); got < 0 {
			t.Errorf("v=%v: negative variance %v", v, got)
		}
		if sd := merged.StdDev(); math.IsNaN(sd) {
			t.Errorf("v=%v: StdDev is NaN", v)
		}
		if got := merged.Mean(); math.Abs(got-v)/v > 1e-12 {
			t.Errorf("v=%v: merged mean %v", v, got)
		}
	}
}

// TestTallyMergeEdges covers merges involving empty tallies.
func TestTallyMergeEdges(t *testing.T) {
	a := &Tally{}
	b := &Tally{}
	a.Merge(b) // empty into empty
	if a.Count() != 0 || a.Variance() != 0 {
		t.Fatalf("empty merge: %v", a)
	}
	b.Add(2)
	b.Add(4)
	a.Merge(b) // into empty: adopts
	if a.Count() != 2 || a.Mean() != 3 || a.Min() != 2 || a.Max() != 4 {
		t.Fatalf("merge into empty: %v", a)
	}
	a.Merge(&Tally{}) // empty into non-empty: no-op
	if a.Count() != 2 || a.Mean() != 3 {
		t.Fatalf("no-op merge changed state: %v", a)
	}
}

// TestQuantilesEdgeCases covers the stored-sample estimator on n=0, n=1 and
// constant samples.
func TestQuantilesEdgeCases(t *testing.T) {
	var q Quantiles
	for _, p := range []float64{0, 0.5, 1} {
		if got := q.Value(p); got != 0 {
			t.Errorf("empty sample: Value(%v) = %v, want 0", p, got)
		}
	}
	q.Add(9)
	for _, p := range []float64{0, 0.31, 0.5, 1} {
		if got := q.Value(p); got != 9 {
			t.Errorf("n=1: Value(%v) = %v, want 9", p, got)
		}
	}
	q.Reset()
	for i := 0; i < 10; i++ {
		q.Add(4)
	}
	for _, p := range []float64{0, 0.499, 0.5, 0.999, 1} {
		if got := q.Value(p); got != 4 {
			t.Errorf("constant sample: Value(%v) = %v, want 4", p, got)
		}
	}
}
