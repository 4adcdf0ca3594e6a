package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministicSequences(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with identical seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("generators with different seeds produced %d identical outputs out of 1000", same)
	}
}

func TestStreamsAreDecorrelated(t *testing.T) {
	const n = 4096
	s0 := NewStream(7, 0)
	s1 := NewStream(7, 1)
	var dot, n0, n1 float64
	for i := 0; i < n; i++ {
		x := s0.Float64() - 0.5
		y := s1.Float64() - 0.5
		dot += x * y
		n0 += x * x
		n1 += y * y
	}
	corr := dot / math.Sqrt(n0*n1)
	if math.Abs(corr) > 0.08 {
		t.Fatalf("streams 0 and 1 correlated: r = %v", corr)
	}
}

func TestStreamReproducible(t *testing.T) {
	a := NewStream(99, 5)
	b := NewStream(99, 5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same (seed, stream) pair diverged at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(6)
	const n = 10
	const draws = 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from expected %v", i, c, want)
		}
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Uint64n(64)
		if v >= 64 {
			t.Fatalf("Uint64n(64) = %d out of range", v)
		}
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	r := New(7)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(8)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
		const n = 100000
		count := 0
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				count++
			}
		}
		got := float64(count) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bernoulli(%v) frequency %v", p, got)
		}
	}
}

func TestExpMeanAndVariance(t *testing.T) {
	r := New(9)
	for _, rate := range []float64{0.5, 1.0, 4.0} {
		const n = 200000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := r.Exp(rate)
			if x < 0 {
				t.Fatalf("Exp returned negative value %v", x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-1/rate) > 0.02/rate {
			t.Fatalf("Exp(%v) mean %v, want %v", rate, mean, 1/rate)
		}
		if math.Abs(variance-1/(rate*rate)) > 0.06/(rate*rate) {
			t.Fatalf("Exp(%v) variance %v, want %v", rate, variance, 1/(rate*rate))
		}
	}
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestPoissonMeanSmall(t *testing.T) {
	r := New(10)
	for _, mean := range []float64{0.1, 1.0, 5.0, 20.0} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*math.Max(mean, 1) {
			t.Fatalf("Poisson(%v) sample mean %v", mean, got)
		}
	}
}

func TestPoissonMeanLarge(t *testing.T) {
	r := New(12)
	for _, mean := range []float64{40, 100, 500} {
		const n = 40000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := float64(r.Poisson(mean))
			sum += x
			sumSq += x * x
		}
		gotMean := sum / n
		gotVar := sumSq/n - gotMean*gotMean
		if math.Abs(gotMean-mean) > 0.03*mean {
			t.Fatalf("Poisson(%v) sample mean %v", mean, gotMean)
		}
		// Poisson variance equals its mean.
		if math.Abs(gotVar-mean) > 0.10*mean {
			t.Fatalf("Poisson(%v) sample variance %v", mean, gotVar)
		}
	}
}

func TestPoissonZeroAndNegativeMean(t *testing.T) {
	r := New(13)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d", got)
	}
	if got := r.Poisson(-3); got != 0 {
		t.Fatalf("Poisson(-3) = %d", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 5, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(18)
	const n = 5
	const draws = 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("Perm first element %d frequency %d deviates from %v", i, c, want)
		}
	}
}

func TestSeedResetsSequence(t *testing.T) {
	r := New(20)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(20)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("sequence after re-Seed diverged at %d", i)
		}
	}
}

func TestZeroStateNormalized(t *testing.T) {
	r := &Rand{}
	r.normalizeState()
	// The generator must not get stuck returning a constant.
	a, b := r.Uint64(), r.Uint64()
	if a == b {
		c := r.Uint64()
		if b == c {
			t.Fatal("generator with normalized zero state appears constant")
		}
	}
}

// Property: Uint64n(n) < n for every n > 0 (testing/quick).
func TestQuickUint64nInRange(t *testing.T) {
	r := New(21)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Exp(rate) is non-negative for every positive rate.
func TestQuickExpNonNegative(t *testing.T) {
	r := New(23)
	f := func(rateRaw uint16) bool {
		rate := float64(rateRaw)/1000 + 1e-6
		return r.Exp(rate) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Exp(1.0)
	}
	_ = sink
}

func BenchmarkPoissonSmallMean(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Poisson(2.5)
	}
	_ = sink
}

func BenchmarkPoissonLargeMean(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Poisson(200)
	}
	_ = sink
}

func TestSplitSeedDeterministic(t *testing.T) {
	if SplitSeed(1, 0) != SplitSeed(1, 0) {
		t.Fatal("SplitSeed is not deterministic")
	}
}

func TestSplitSeedDistinctChildren(t *testing.T) {
	seen := make(map[uint64]uint64)
	for base := uint64(0); base < 8; base++ {
		for idx := uint64(0); idx < 1024; idx++ {
			child := SplitSeed(base, idx)
			if prev, dup := seen[child]; dup {
				t.Fatalf("collision: SplitSeed(%d,%d) == previous child %d", base, idx, prev)
			}
			seen[child] = idx
			if child == base {
				t.Fatalf("SplitSeed(%d,%d) returned the base seed", base, idx)
			}
		}
	}
}

func TestSplitSeedChildrenDecorrelated(t *testing.T) {
	// Generators seeded from adjacent children should not produce correlated
	// uniforms: check the lag-0 cross-correlation of two long runs.
	a := New(SplitSeed(42, 0))
	b := New(SplitSeed(42, 1))
	const n = 20000
	var sumAB, sumA, sumB float64
	for i := 0; i < n; i++ {
		x, y := a.Float64(), b.Float64()
		sumAB += x * y
		sumA += x
		sumB += y
	}
	cov := sumAB/n - (sumA/n)*(sumB/n)
	if cov > 0.01 || cov < -0.01 {
		t.Fatalf("adjacent split seeds look correlated: cov = %v", cov)
	}
}
