package static

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/hypercube"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/slotsim"
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

// TestConcurrentTrials runs the same trials from several goroutines at once,
// as the experiment harness runs E14's rows: the pooled slot kernels must
// give each the single-goroutine result.
func TestConcurrentTrials(t *testing.T) {
	want, err := RunTrials(5, Valiant, 4, []float64{3}, 11)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := RunTrials(5, Valiant, 4, []float64{3}, 11); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent trials gave %+v (err %v), want %+v", got, err, want)
			}
		}()
	}
	wg.Wait()
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

func TestPipelinedLowLoadDelivers(t *testing.T) {
	// At a very light load the batch scheme is stable: the backlog stays
	// flat and delays are of order d (one round) plus the origin wait.
	cfg := PipelinedConfig{D: 4, Lambda: 0.01, P: 0.5, Horizon: 4000, Seed: 7}
	res := RunPipelined(cfg)
	if res.Delivered == 0 {
		t.Fatal("nothing delivered at low load")
	}
	if res.Rounds == 0 {
		t.Fatal("no rounds executed")
	}
	// At this light load a round carries only a handful of packets, so its
	// length is at least one transmission and at most the diameter plus the
	// (small) contention.
	if res.MeanRoundLength < 1 || res.MeanRoundLength > 2*float64(cfg.D) {
		t.Fatalf("round length %v outside [1, 2d]", res.MeanRoundLength)
	}
	if res.BacklogSlope > 0.01 {
		t.Fatalf("backlog growing at low load: slope %v", res.BacklogSlope)
	}
	if res.MeanDelay <= 0 {
		t.Fatalf("mean delay %v", res.MeanDelay)
	}
}

func TestPipelinedModerateLoadUnstable(t *testing.T) {
	// At rho = 0.5 (lambda = 1, p = 1/2) greedy routing is comfortably
	// stable, but the batch scheme needs lambda*round < 1 with round >= d,
	// so lambda = 1 on the 4-cube is far beyond its capacity: the origin
	// backlog must grow roughly linearly.
	cfg := PipelinedConfig{D: 4, Lambda: 1.0, P: 0.5, Horizon: 2000, Seed: 8}
	res := RunPipelined(cfg)
	if res.BacklogSlope < 1 {
		t.Fatalf("expected strongly positive backlog slope, got %v", res.BacklogSlope)
	}
	if res.FinalBacklog == 0 {
		t.Fatal("expected a large final backlog")
	}
}

func TestPipelinedValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for d=0")
			}
		}()
		RunPipelined(PipelinedConfig{D: 0, Horizon: 10})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for zero horizon")
			}
		}()
		RunPipelined(PipelinedConfig{D: 3})
	}()
}

// checkedBatch runs every batch on one slot kernel and requires the
// reference simulator's deliveries from it: every delivery's packet index
// and float64 time, in order. *n counts the batches checked.
func checkedBatch(t *testing.T, n *int) batchFunc {
	var k slotsim.Kernel
	return func(numArcs int, routes [][]int) []slotsim.Delivery {
		got, want := k.Batch(numArcs, routes), oracle.Batch(numArcs, routes)
		if len(got) != len(want) {
			t.Fatalf("batch %d: kernel delivered %d packets, oracle %d", *n, len(got), len(want))
		}
		for i, w := range want {
			if got[i] != slotsim.Delivery(w) {
				t.Fatalf("batch %d, delivery %d: kernel %+v, oracle %+v", *n, i, got[i], w)
			}
		}
		*n++
		return got
	}
}

// TestKernelBatchMatchesOracle requires the slot kernel's batches to equal
// the reference simulator's, delivery by delivery: on E7's and E14's Quick
// inputs (seed 1, as experiments -quick runs them), and on random
// permutations, many-to-one and subset batches at d <= 8 under greedy,
// random-dimension-order and Valiant routes.
func TestKernelBatchMatchesOracle(t *testing.T) {
	var n int
	batch := checkedBatch(t, &n)
	for _, rho := range []float64{0.1, 0.3, 0.6} {
		runPipelined(PipelinedConfig{D: 4, Lambda: rho / 0.5, P: 0.5, Horizon: 1200, Seed: 1}, batch)
	}
	for d := 4; d <= 6; d++ {
		for _, scheme := range []Scheme{Greedy, Valiant} {
			for seed := uint64(1); seed <= 8; seed++ {
				perm := workload.Permutation(d, xrand.NewStream(seed, permStream))
				if _, err := routePermutation(batch, d, perm, scheme, seed); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rng := xrand.NewStream(9, 0)
	routers := []routing.HypercubeRouter{routing.DimensionOrder{}, routing.RandomDimensionOrder{}, routing.ValiantTwoPhase{}}
	for d := 1; d <= 8; d++ {
		cube := hypercube.New(d)
		for _, r := range routers {
			for _, shape := range []string{"permutation", "many-to-one", "subset"} {
				perm := workload.Permutation(d, rng)
				var routes [][]int
				for x := range cube.Nodes() {
					z := perm[x]
					switch {
					case shape == "many-to-one":
						z = hypercube.Node(rng.Intn(1 + cube.Nodes()/4))
					case shape == "subset" && rng.Intn(2) == 0:
						continue
					}
					routes = append(routes, routing.Path(r, cube, hypercube.Node(x), z, rng))
				}
				batch(cube.NumArcs(), routes)
			}
		}
	}
	t.Logf("%d batches identical", n)
}
