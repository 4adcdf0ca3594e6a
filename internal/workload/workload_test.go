package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestBitFlipValidation(t *testing.T) {
	for _, c := range []struct {
		d int
		p float64
	}{{0, 0.5}, {3, -0.1}, {3, 1.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewBitFlip(%d,%v) did not panic", c.d, c.p)
				}
			}()
			NewBitFlip(c.d, c.p)
		}()
	}
}

func TestBitFlipMeanDistance(t *testing.T) {
	d := 8
	rng := xrand.New(1)
	for _, p := range []float64{0.0, 0.1, 0.5, 0.9, 1.0} {
		dist := NewBitFlip(d, p)
		var tally stats.Tally
		const draws = 30000
		for i := 0; i < draws; i++ {
			origin := hypercube.Node(rng.Intn(1 << uint(d)))
			dest := dist.Sample(origin, rng)
			tally.Add(float64(hypercube.Hamming(origin, dest)))
		}
		if math.Abs(tally.Mean()-float64(d)*p) > 0.1 {
			t.Fatalf("p=%v: sampled mean distance %v, want %v", p, tally.Mean(), float64(d)*p)
		}
	}
}

func TestBitFlipPerBitIndependence(t *testing.T) {
	// Lemma 1: the events B_i (bit i flipped) are independent Bernoulli(p).
	d := 6
	p := 0.3
	dist := NewBitFlip(d, p)
	rng := xrand.New(2)
	const draws = 200000
	counts := make([]int, d)
	pairCount := 0 // joint flips of bits 1 and 2
	for i := 0; i < draws; i++ {
		origin := hypercube.Node(rng.Intn(1 << uint(d)))
		diff := origin ^ dist.Sample(origin, rng)
		for m := 0; m < d; m++ {
			if diff&(1<<uint(m)) != 0 {
				counts[m]++
			}
		}
		if diff&1 != 0 && diff&2 != 0 {
			pairCount++
		}
	}
	for m, c := range counts {
		freq := float64(c) / draws
		if math.Abs(freq-p) > 0.01 {
			t.Fatalf("bit %d flip frequency %v, want %v", m+1, freq, p)
		}
	}
	jointFreq := float64(pairCount) / draws
	if math.Abs(jointFreq-p*p) > 0.01 {
		t.Fatalf("joint flip frequency %v, want %v (independence)", jointFreq, p*p)
	}
}

func TestBitFlipExtremes(t *testing.T) {
	d := 5
	rng := xrand.New(3)
	zero := NewBitFlip(d, 0)
	one := NewBitFlip(d, 1)
	all := hypercube.Node(1<<uint(d) - 1)
	for i := 0; i < 100; i++ {
		origin := hypercube.Node(rng.Intn(1 << uint(d)))
		if zero.Sample(origin, rng) != origin {
			t.Fatal("p=0 must map origin to itself")
		}
		if one.Sample(origin, rng) != origin^all {
			t.Fatal("p=1 must map origin to its complement")
		}
	}
}

func TestUniformDestinationFrequencies(t *testing.T) {
	d := 3
	dist := NewBitFlip(d, 0.5)
	rng := xrand.New(4)
	counts := make([]int, 1<<uint(d))
	const draws = 80000
	for i := 0; i < draws; i++ {
		counts[dist.Sample(5, rng)]++
	}
	want := float64(draws) / float64(len(counts))
	for z, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("destination %d frequency %d, want ~%v", z, c, want)
		}
	}
}

func TestTranslationInvariantMatchesBitFlip(t *testing.T) {
	// Build the translation-invariant table that corresponds to BitFlip(p)
	// and check the derived quantities agree.
	d := 5
	p := 0.3
	n := 1 << uint(d)
	weights := make([]float64, n)
	for v := 0; v < n; v++ {
		k := 0
		for m := 0; m < d; m++ {
			if v&(1<<uint(m)) != 0 {
				k++
			}
		}
		weights[v] = math.Pow(p, float64(k)) * math.Pow(1-p, float64(d-k))
	}
	ti := NewTranslationInvariant(d, weights)
	for j := 1; j <= d; j++ {
		if math.Abs(ti.FlipProbability(hypercube.Dimension(j))-p) > 1e-9 {
			t.Fatalf("dimension %d flip probability %v", j, ti.FlipProbability(hypercube.Dimension(j)))
		}
	}
	// Sampling matches the analytic mean distance.
	rng := xrand.New(6)
	var tally stats.Tally
	for i := 0; i < 50000; i++ {
		origin := hypercube.Node(rng.Intn(n))
		tally.Add(float64(hypercube.Hamming(origin, ti.Sample(origin, rng))))
	}
	if math.Abs(tally.Mean()-float64(d)*p) > 0.05 {
		t.Fatalf("sampled mean distance %v", tally.Mean())
	}
}

func TestTranslationInvariantAsymmetric(t *testing.T) {
	// All traffic crosses dimension 1 only.
	d := 3
	weights := make([]float64, 8)
	weights[1] = 2.5
	ti := NewTranslationInvariant(d, weights)
	if ti.FlipProbability(1) != 1 || ti.FlipProbability(2) != 0 || ti.FlipProbability(3) != 0 {
		t.Fatal("flip probabilities wrong for concentrated weights")
	}
	rng := xrand.New(7)
	for i := 0; i < 100; i++ {
		if ti.Sample(4, rng) != 5 {
			t.Fatal("sample should always flip dimension 1 only")
		}
	}
}

func TestTranslationInvariantValidation(t *testing.T) {
	cases := []struct {
		name    string
		d       int
		weights []float64
	}{
		{"wrong length", 3, []float64{1, 2}},
		{"negative weight", 2, []float64{1, -1, 0, 0}},
		{"all zero", 2, []float64{0, 0, 0, 0}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", c.name)
				}
			}()
			NewTranslationInvariant(c.d, c.weights)
		}()
	}
}

func TestRowBitFlip(t *testing.T) {
	d := 6
	p := 0.4
	dist := NewRowBitFlip(d, p)
	rng := xrand.New(8)
	var tally stats.Tally
	for i := 0; i < 50000; i++ {
		origin := butterfly.Row(rng.Intn(1 << uint(d)))
		dest := dist.SampleRow(origin, rng)
		tally.Add(float64(butterfly.Hamming(origin, dest)))
	}
	if math.Abs(tally.Mean()-float64(d)*p) > 0.1 {
		t.Fatalf("sampled mean row distance %v", tally.Mean())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewRowBitFlip(0, 0.5)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewRowBitFlip(3, 2)
	}()
}

func TestPoissonSourceRate(t *testing.T) {
	src := NewPoissonSource(2.0, 42, 0)
	var gaps stats.Tally
	prev := 0.0
	for i := 0; i < 100000; i++ {
		next := src.NextArrival()
		if next <= prev {
			t.Fatal("arrival times not strictly increasing")
		}
		gaps.Add(next - prev)
		prev = next
		src.Advance()
	}
	if math.Abs(gaps.Mean()-0.5) > 0.01 {
		t.Fatalf("mean inter-arrival %v, want 0.5", gaps.Mean())
	}
	// Exponential: standard deviation equals the mean.
	if math.Abs(gaps.StdDev()-0.5) > 0.02 {
		t.Fatalf("inter-arrival sd %v, want 0.5", gaps.StdDev())
	}
}

func TestPoissonSourceZeroRate(t *testing.T) {
	src := NewPoissonSource(0, 1, 0)
	if !math.IsInf(src.NextArrival(), 1) {
		t.Fatal("zero-rate source should never generate")
	}
	src.Advance()
	if !math.IsInf(src.NextArrival(), 1) {
		t.Fatal("zero-rate source should never generate after Advance")
	}
}

func TestPoissonSourceReproducible(t *testing.T) {
	a := NewPoissonSource(1.5, 7, 3)
	b := NewPoissonSource(1.5, 7, 3)
	for i := 0; i < 100; i++ {
		if a.NextArrival() != b.NextArrival() {
			t.Fatal("sources with same seed/stream diverged")
		}
		a.Advance()
		b.Advance()
	}
	if a.RNG() == nil {
		t.Fatal("RNG accessor returned nil")
	}
}

func TestPoissonSourcesIndependentStreams(t *testing.T) {
	a := NewPoissonSource(1, 7, 0)
	b := NewPoissonSource(1, 7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.NextArrival() == b.NextArrival() {
			same++
		}
		a.Advance()
		b.Advance()
	}
	if same > 2 {
		t.Fatalf("streams coincide in %d of 1000 arrivals", same)
	}
}

func TestSlottedSourceBatchMean(t *testing.T) {
	src := NewSlottedSource(2.0, 0.5, 11, 0)
	var tally stats.Tally
	for i := 0; i < 100000; i++ {
		tally.Add(float64(src.BatchSize()))
	}
	if math.Abs(tally.Mean()-1.0) > 0.02 {
		t.Fatalf("mean batch size %v, want 1.0", tally.Mean())
	}
	if src.RNG() == nil {
		t.Fatal("RNG accessor returned nil")
	}
}

func TestSlottedSourceZeroRate(t *testing.T) {
	src := NewSlottedSource(0, 1, 1, 0)
	for i := 0; i < 100; i++ {
		if src.BatchSize() != 0 {
			t.Fatal("zero-rate slotted source generated a packet")
		}
	}
}

func TestSlottedSourcePanicsOnBadTau(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSlottedSource(1, 0, 1, 0)
}

func TestPermutation(t *testing.T) {
	rng := xrand.New(9)
	d := 5
	perm := Permutation(d, rng)
	if len(perm) != 1<<uint(d) {
		t.Fatalf("permutation length %d", len(perm))
	}
	seen := make(map[hypercube.Node]bool)
	for _, z := range perm {
		if seen[z] {
			t.Fatal("not a permutation")
		}
		seen[z] = true
	}
}

func TestLoadFactorHelpers(t *testing.T) {
	if math.Abs(RequiredLambdaButterfly(0.9, 0.25)-1.2) > 1e-12 {
		t.Fatal("RequiredLambdaButterfly wrong")
	}
	// Round trip: the lambda computed for a target rho reproduces that rho.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		for _, rho := range []float64{0.2, 0.7, 0.95} {
			lb := RequiredLambdaButterfly(rho, p)
			if math.Abs(lb*math.Max(p, 1-p)-rho) > 1e-12 {
				t.Fatal("butterfly load factor round trip failed")
			}
		}
	}
}

// Property: BitFlip destinations always lie inside the cube and the XOR
// difference has population count at most d.
func TestQuickBitFlipStaysInCube(t *testing.T) {
	rng := xrand.New(10)
	f := func(originRaw uint16, pRaw uint8) bool {
		d := 8
		p := float64(pRaw) / 255
		dist := NewBitFlip(d, p)
		origin := hypercube.Node(originRaw) & hypercube.Node(1<<uint(d)-1)
		dest := dist.Sample(origin, rng)
		return int(dest) < 1<<uint(d) && hypercube.Hamming(origin, dest) <= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Poisson source arrival times are strictly increasing for positive
// rates.
func TestQuickPoissonSourceMonotone(t *testing.T) {
	f := func(seed uint64, rateRaw uint8) bool {
		rate := float64(rateRaw)/32 + 0.01
		src := NewPoissonSource(rate, seed, 0)
		prev := -1.0
		for i := 0; i < 50; i++ {
			next := src.NextArrival()
			if next <= prev {
				return false
			}
			prev = next
			src.Advance()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBitFlipSample(b *testing.B) {
	dist := NewBitFlip(10, 0.5)
	rng := xrand.New(11)
	var sink hypercube.Node
	for i := 0; i < b.N; i++ {
		sink = dist.Sample(hypercube.Node(i&1023), rng)
	}
	_ = sink
}

func BenchmarkPoissonSourceAdvance(b *testing.B) {
	src := NewPoissonSource(1, 1, 0)
	for i := 0; i < b.N; i++ {
		src.Advance()
	}
}
