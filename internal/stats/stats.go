// Package stats provides the streaming statistics used by the routing
// simulator: running means and variances (Welford's algorithm), time-weighted
// averages for queue-length processes, exact stored-sample quantiles
// (Quantiles), a mergeable relative-error quantile sketch (DDSketch) and
// (x, y) series with a least-squares slope.
//
// All collectors are plain value types with pointer receivers; none of them
// allocate per observation, so they can be updated on the simulator's hot
// path (one update per packet event) without disturbing the measured system.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Tally accumulates scalar observations and reports their running mean,
// variance, minimum and maximum using Welford's numerically stable update.
type Tally struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (t *Tally) Add(x float64) {
	t.n++
	if t.n == 1 {
		t.min, t.max = x, x
	} else {
		if x < t.min {
			t.min = x
		}
		if x > t.max {
			t.max = x
		}
	}
	delta := x - t.mean
	t.mean += delta / float64(t.n)
	t.m2 += delta * (x - t.mean)
}

// Count returns the number of observations recorded.
func (t *Tally) Count() int64 { return t.n }

// Mean returns the sample mean, or 0 if no observations were recorded.
func (t *Tally) Mean() float64 { return t.mean }

// Variance returns the unbiased sample variance (n-1 denominator), or 0 for
// fewer than two observations. The result is clamped at zero: Welford's m2
// is non-negative term by term, but Merge's pooled update can round a
// mathematically zero m2 to a tiny negative float, and a negative variance
// would surface as a NaN standard deviation.
func (t *Tally) Variance() float64 {
	if t.n < 2 || t.m2 <= 0 {
		return 0
	}
	return t.m2 / float64(t.n-1)
}

// StdDev returns the sample standard deviation.
func (t *Tally) StdDev() float64 { return math.Sqrt(t.Variance()) }

// Min returns the smallest observation (0 if none).
func (t *Tally) Min() float64 { return t.min }

// Max returns the largest observation (0 if none).
func (t *Tally) Max() float64 { return t.max }

// StdError returns the standard error of the mean.
func (t *Tally) StdError() float64 {
	if t.n < 2 {
		return 0
	}
	return t.StdDev() / math.Sqrt(float64(t.n))
}

// ConfidenceInterval returns the half-width of an approximate two-sided
// normal confidence interval at the given level (e.g. 0.95). For small
// sample counts the normal quantile slightly understates the width; the
// simulator always works with thousands of observations.
func (t *Tally) ConfidenceInterval(level float64) float64 {
	return normalQuantile(0.5+level/2) * t.StdError()
}

// Merge folds another Tally into t, as if t had observed both streams.
func (t *Tally) Merge(o *Tally) {
	if o.n == 0 {
		return
	}
	if t.n == 0 {
		*t = *o
		return
	}
	n1, n2 := float64(t.n), float64(o.n)
	delta := o.mean - t.mean
	total := n1 + n2
	t.m2 += o.m2 + delta*delta*n1*n2/total
	t.mean += delta * n2 / total
	t.n += o.n
	if o.min < t.min {
		t.min = o.min
	}
	if o.max > t.max {
		t.max = o.max
	}
}

// TimeWeighted tracks a piecewise-constant process (for example a queue
// length) and reports its time-averaged value. Observations are pushed as
// (time, newValue) pairs; the value is assumed to hold until the next update.
type TimeWeighted struct {
	started   bool
	startTime float64
	lastTime  float64
	lastValue float64
	area      float64
	maxValue  float64
}

// Set records that the tracked process takes value v from time now onwards.
// Calls must have non-decreasing time stamps; the first call starts the
// process. Set is small enough to inline into the simulators' per-hop hot
// path: the went-backwards panic carries a typed value whose message is
// formatted only when printed.
func (w *TimeWeighted) Set(now, v float64) {
	if !w.started {
		w.Reset(now, v)
		return
	}
	if now < w.lastTime {
		panic(timeWentBackwards{now, w.lastTime})
	}
	w.area += w.lastValue * (now - w.lastTime)
	w.lastTime = now
	w.lastValue = v
	if v > w.maxValue {
		w.maxValue = v
	}
}

// timeWentBackwards is TimeWeighted.Set's panic value.
type timeWentBackwards struct{ now, last float64 }

func (e timeWentBackwards) Error() string {
	return fmt.Sprintf("stats: TimeWeighted.Set time went backwards: %v < %v", e.now, e.last)
}

// MeanAt returns the time-average including the segment up to time now.
func (w *TimeWeighted) MeanAt(now float64) float64 {
	if !w.started || now <= w.startTime {
		return w.lastValue
	}
	area := w.area + w.lastValue*(now-w.lastTime)
	return area / (now - w.startTime)
}

// Max returns the largest value observed.
func (w *TimeWeighted) Max() float64 { return w.maxValue }

// Reset restarts the collector at time now with value v, discarding history.
// It is used to discard the warm-up transient.
func (w *TimeWeighted) Reset(now, v float64) {
	w.started = true
	w.startTime = now
	w.lastTime = now
	w.lastValue = v
	w.area = 0
	w.maxValue = v
}

// Quantiles computes exact empirical quantiles from a stored sample. It is
// used where full per-packet samples are cheap to keep (small experiments).
type Quantiles struct {
	xs      []float64
	sorted  bool
	selects int // quickselect calls since the last full sort
}

// Add appends an observation.
func (q *Quantiles) Add(x float64) {
	q.xs = append(q.xs, x)
	q.sorted = false
}

// Values returns the stored observations. The slice aliases internal storage:
// treat it as read-only, and note that quantile queries may partially reorder
// it in place (deterministically for a given sample).
func (q *Quantiles) Values() []float64 { return q.xs }

// Reset discards the stored sample, keeping the backing array so a pooled
// collector does not reallocate it.
func (q *Quantiles) Reset() {
	q.xs = q.xs[:0]
	q.sorted = false
	q.selects = 0
}

// Value returns the p-quantile (0 <= p <= 1) of the stored sample. The
// simulators query only a handful of quantiles per run over samples of 10^5+
// delays, so the first few calls use an expected-O(n) quickselect instead of
// the O(n log n) full sort; if a caller keeps querying, the sample is sorted
// once and further lookups are O(1). Either path returns exact order
// statistics, so the reported values do not depend on the strategy.
func (q *Quantiles) Value(p float64) float64 {
	if len(q.xs) == 0 {
		return 0
	}
	if !q.sorted {
		q.selects++
		if q.selects > 4 {
			sort.Float64s(q.xs)
			q.sorted = true
		}
	}
	if p <= 0 {
		return q.orderStat(0)
	}
	if p >= 1 {
		return q.orderStat(len(q.xs) - 1)
	}
	idx := p * float64(len(q.xs)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return q.orderStat(lo)
	}
	frac := idx - float64(lo)
	return q.orderStat(lo)*(1-frac) + q.orderStat(hi)*frac
}

// orderStat returns the k-th smallest stored value (0-based), partitioning
// the sample in place with a median-of-three Hoare quickselect when it is not
// already sorted.
func (q *Quantiles) orderStat(k int) float64 {
	xs := q.xs
	if q.sorted {
		return xs[k]
	}
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot, moved to the middle position.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[lo]
}

// normalQuantile returns the p-quantile of the standard normal distribution
// using the Acklam rational approximation (relative error < 1.15e-9).
func normalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail regions.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}

	const pLow = 0.02425
	const pHigh = 1 - pLow
	var q, r float64
	switch {
	case p < pLow:
		q = math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q = p - 0.5
		r = q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q = math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// NormalQuantile exposes the standard normal quantile function; it is used by
// the harness when sizing confidence intervals for reports.
func NormalQuantile(p float64) float64 { return normalQuantile(p) }

// Series is an ordered collection of (x, y) points used by the harness to
// report sweeps (for example delay versus dimension).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// AddPoint appends a point to the series.
func (s *Series) AddPoint(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Reset discards the points, keeping the backing arrays for reuse.
func (s *Series) Reset() {
	s.X = s.X[:0]
	s.Y = s.Y[:0]
}

// LinearSlope returns the least-squares slope of y against x. The stability
// experiments use the slope of queue length versus time as the divergence
// diagnostic: a clearly positive slope indicates an unstable system.
func (s *Series) LinearSlope() float64 {
	n := float64(len(s.X))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range s.X {
		sx += s.X[i]
		sy += s.Y[i]
		sxx += s.X[i] * s.X[i]
		sxy += s.X[i] * s.Y[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / denom
}
