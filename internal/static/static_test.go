package static

import (
	"testing"
	"testing/quick"

	"repro/internal/hypercube"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func identity(d int) []hypercube.Node {
	n := 1 << uint(d)
	perm := make([]hypercube.Node, n)
	for i := range perm {
		perm[i] = hypercube.Node(i)
	}
	return perm
}

func TestValidation(t *testing.T) {
	if _, err := RoutePermutation(0, nil, Greedy, 1); err == nil {
		t.Fatal("expected error for d=0")
	}
	if _, err := RoutePermutation(3, identity(2), Greedy, 1); err == nil {
		t.Fatal("expected error for wrong length")
	}
	badDup := identity(3)
	badDup[1] = badDup[0]
	if _, err := RoutePermutation(3, badDup, Greedy, 1); err == nil {
		t.Fatal("expected error for duplicate destination")
	}
	badRange := identity(3)
	badRange[0] = 200
	if _, err := RoutePermutation(3, badRange, Greedy, 1); err == nil {
		t.Fatal("expected error for out-of-range destination")
	}
	if _, err := RunTrials(3, Greedy, 0, nil, 1); err == nil {
		t.Fatal("expected error for zero trials")
	}
}

func TestIdentityPermutationIsFree(t *testing.T) {
	res, err := RoutePermutation(4, identity(4), Greedy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.TotalHops != 0 {
		t.Fatalf("identity permutation should cost nothing: %+v", res)
	}
	if res.Packets != 16 {
		t.Fatalf("packets = %d", res.Packets)
	}
}

func TestTransposePermutationGreedy(t *testing.T) {
	// The bit-complement permutation sends x to its antipode; the canonical
	// paths of different packets are arc-disjoint (see the end of §3.3), so
	// the greedy makespan is exactly d and every packet takes d hops with no
	// queueing beyond its own transmissions.
	d := 5
	n := 1 << uint(d)
	perm := make([]hypercube.Node, n)
	for x := range perm {
		perm[x] = hypercube.Node(x) ^ hypercube.Node(n-1)
	}
	res, err := RoutePermutation(d, perm, Greedy, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != float64(d) {
		t.Fatalf("antipodal makespan %v, want exactly %d", res.Makespan, d)
	}
	if res.MeanDelay != float64(d) {
		t.Fatalf("mean delay %v, want %d", res.MeanDelay, d)
	}
	if res.TotalHops != int64(d*n) {
		t.Fatalf("total hops %d", res.TotalHops)
	}
	if res.MaxQueueLength > 1 {
		t.Fatalf("antipodal routing should never queue, max queue %d", res.MaxQueueLength)
	}
}

func TestRandomPermutationGreedyMakespanIsOrderD(t *testing.T) {
	// [VaB81]: a random permutation completes in O(d) time with high
	// probability under greedy dimension-order routing (this is exactly the
	// randomized-destination situation, not a worst-case permutation).
	d := 6
	sum, err := RunTrials(d, Greedy, 20, []float64{1, 2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MeanMakespan < float64(d)/2 {
		t.Fatalf("mean makespan %v suspiciously small", sum.MeanMakespan)
	}
	if sum.MaxMakespan > 3*float64(d) {
		t.Fatalf("max makespan %v exceeds 3d", sum.MaxMakespan)
	}
	if sum.FractionWithin[2] < 0.95 {
		t.Fatalf("fraction within 3d = %v", sum.FractionWithin[2])
	}
	// Fractions are monotone in the multiplier.
	if sum.FractionWithin[0] > sum.FractionWithin[1] || sum.FractionWithin[1] > sum.FractionWithin[2] {
		t.Fatalf("fractions not monotone: %v", sum.FractionWithin)
	}
	if sum.Trials != 20 {
		t.Fatalf("trials = %d", sum.Trials)
	}
}

func TestValiantLongerButSameOrder(t *testing.T) {
	d := 6
	greedy, err := RunTrials(d, Greedy, 10, []float64{3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	valiant, err := RunTrials(d, Valiant, 10, []float64{3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Valiant doubles the expected path length, so its makespan and delay
	// are larger, but still O(d).
	if valiant.MeanMakespan <= greedy.MeanMakespan {
		t.Fatalf("Valiant makespan %v not larger than greedy %v",
			valiant.MeanMakespan, greedy.MeanMakespan)
	}
	if valiant.MeanMakespan > 6*float64(d) {
		t.Fatalf("Valiant makespan %v not O(d)", valiant.MeanMakespan)
	}
	if valiant.MeanDelay <= greedy.MeanDelay {
		t.Fatal("Valiant mean delay should exceed greedy")
	}
}

func TestPermutationDelayAtLeastHammingAverage(t *testing.T) {
	d := 5
	rng := xrand.NewStream(99, 1)
	perm := workload.Permutation(d, rng)
	res, err := RoutePermutation(d, perm, Greedy, 5)
	if err != nil {
		t.Fatal(err)
	}
	var totalH float64
	for x, z := range perm {
		totalH += float64(hypercube.Hamming(hypercube.Node(x), z))
	}
	meanH := totalH / float64(len(perm))
	if res.MeanDelay < meanH-1e-9 {
		t.Fatalf("mean delay %v below mean Hamming distance %v", res.MeanDelay, meanH)
	}
	if float64(res.TotalHops) != totalH {
		t.Fatalf("total hops %d, want %v", res.TotalHops, totalH)
	}
}

func TestSchemeString(t *testing.T) {
	if Greedy.String() != "greedy" || Valiant.String() != "valiant" || Scheme(7).String() == "" {
		t.Fatal("scheme names wrong")
	}
}

func TestReproducible(t *testing.T) {
	a, err := RouteRandomPermutation(5, Valiant, 123)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RouteRandomPermutation(5, Valiant, 123)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.TotalHops != b.TotalHops {
		t.Fatal("same seed gave different results")
	}
}

// Property: for any permutation of the 4-cube, greedy routing delivers every
// packet, the makespan is at least the maximum Hamming distance and at most
// the total number of hops.
func TestQuickGreedyPermutationBounds(t *testing.T) {
	d := 4
	n := 1 << uint(d)
	f := func(seed uint64) bool {
		rng := xrand.NewStream(seed, 0)
		perm := workload.Permutation(d, rng)
		res, err := RoutePermutation(d, perm, Greedy, seed)
		if err != nil {
			return false
		}
		maxH := 0
		totalH := int64(0)
		for x, z := range perm {
			h := hypercube.Hamming(hypercube.Node(x), z)
			totalH += int64(h)
			if h > maxH {
				maxH = h
			}
		}
		if res.TotalHops != totalH {
			return false
		}
		if res.Makespan < float64(maxH) {
			return false
		}
		return res.Makespan <= float64(totalH)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	_ = n
}

func BenchmarkGreedyPermutation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RouteRandomPermutation(8, Greedy, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValiantPermutation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RouteRandomPermutation(8, Valiant, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
