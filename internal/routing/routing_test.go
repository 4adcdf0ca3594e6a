package routing

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
	"repro/internal/xrand"
)

func TestDimensionOrderPathShape(t *testing.T) {
	c := hypercube.New(6)
	rng := xrand.New(1)
	r := DimensionOrder{}
	for i := 0; i < 2000; i++ {
		x := hypercube.Node(rng.Intn(c.Nodes()))
		z := hypercube.Node(rng.Intn(c.Nodes()))
		path := Path(r, c, x, z, rng)
		if len(path) != hypercube.Hamming(x, z) {
			t.Fatalf("path length %d, Hamming %d", len(path), hypercube.Hamming(x, z))
		}
		// Arc indices decode to a contiguous path with increasing dimensions.
		cur := x
		lastDim := hypercube.Dimension(0)
		for _, idx := range path {
			a := c.ArcAt(idx)
			if a.From != cur {
				t.Fatal("path not contiguous")
			}
			if a.Dim <= lastDim {
				t.Fatal("dimensions not increasing")
			}
			lastDim = a.Dim
			cur = a.To
		}
		if cur != z {
			t.Fatal("path does not reach destination")
		}
	}
}

func TestRandomDimensionOrderPathShape(t *testing.T) {
	c := hypercube.New(6)
	rng := xrand.New(2)
	r := RandomDimensionOrder{}
	sawNonCanonical := false
	for i := 0; i < 2000; i++ {
		x := hypercube.Node(rng.Intn(c.Nodes()))
		z := hypercube.Node(rng.Intn(c.Nodes()))
		path := Path(r, c, x, z, rng)
		if len(path) != hypercube.Hamming(x, z) {
			t.Fatalf("path length %d, Hamming %d", len(path), hypercube.Hamming(x, z))
		}
		cur := x
		increasing := true
		lastDim := hypercube.Dimension(0)
		for _, idx := range path {
			a := c.ArcAt(idx)
			if a.From != cur {
				t.Fatal("path not contiguous")
			}
			if a.Dim <= lastDim {
				increasing = false
			}
			lastDim = a.Dim
			cur = a.To
		}
		if cur != z {
			t.Fatal("path does not reach destination")
		}
		if !increasing && len(path) >= 2 {
			sawNonCanonical = true
		}
	}
	if !sawNonCanonical {
		t.Fatal("random order never produced a non-canonical order")
	}
}

func TestValiantTwoPhasePath(t *testing.T) {
	c := hypercube.New(6)
	rng := xrand.New(3)
	r := ValiantTwoPhase{}
	longer := 0
	for i := 0; i < 2000; i++ {
		x := hypercube.Node(rng.Intn(c.Nodes()))
		z := hypercube.Node(rng.Intn(c.Nodes()))
		path := Path(r, c, x, z, rng)
		// The path must be contiguous and reach the destination.
		cur := x
		for _, idx := range path {
			a := c.ArcAt(idx)
			if a.From != cur {
				t.Fatal("path not contiguous")
			}
			cur = a.To
		}
		if cur != z {
			t.Fatal("Valiant path does not reach destination")
		}
		if len(path) < hypercube.Hamming(x, z) {
			t.Fatal("path shorter than the Hamming distance")
		}
		if len(path) > 2*c.Dimension() {
			t.Fatal("path longer than two phases can produce")
		}
		if len(path) > hypercube.Hamming(x, z) {
			longer++
		}
	}
	// Valiant routing detours through a random intermediate node, so most
	// paths are strictly longer than the direct one.
	if longer < 500 {
		t.Fatalf("only %d of 2000 Valiant paths were detours", longer)
	}
}

func TestValiantMeanPathLength(t *testing.T) {
	// With uniform traffic the expected Valiant path length is d (d/2 per
	// phase), twice the direct expectation.
	c := hypercube.New(8)
	rng := xrand.New(4)
	r := ValiantTwoPhase{}
	total := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		x := hypercube.Node(rng.Intn(c.Nodes()))
		z := hypercube.Node(rng.Intn(c.Nodes()))
		total += len(Path(r, c, x, z, rng))
	}
	mean := float64(total) / draws
	if math.Abs(mean-float64(c.Dimension())) > 0.15 {
		t.Fatalf("mean Valiant path length %v, want ~%d", mean, c.Dimension())
	}
}

func TestButterflyPath(t *testing.T) {
	b := butterfly.New(5)
	rng := xrand.New(5)
	for i := 0; i < 2000; i++ {
		x := butterfly.Row(rng.Intn(1 << 5))
		z := butterfly.Row(rng.Intn(1 << 5))
		path := AppendButterflyPath(nil, b, x, z)
		if len(path) != b.Dimension() {
			t.Fatalf("path length %d", len(path))
		}
		vertical := 0
		for j, idx := range path {
			if int(b.LevelOfArcIndex(idx)) != j+1 {
				t.Fatal("level order wrong")
			}
			if b.KindOfArcIndex(idx) == butterfly.Vertical {
				vertical++
			}
		}
		if vertical != butterfly.Hamming(x, z) {
			t.Fatal("vertical arc count wrong")
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

// Property: every router produces a contiguous path ending at the
// destination, for every origin/destination pair.
func TestQuickRoutersReachDestination(t *testing.T) {
	c := hypercube.New(7)
	rng := xrand.New(6)
	routers := []HypercubeRouter{DimensionOrder{}, RandomDimensionOrder{}, ValiantTwoPhase{}}
	mask := hypercube.Node(c.Nodes() - 1)
	f := func(xr, zr uint16, which uint8) bool {
		x := hypercube.Node(xr) & mask
		z := hypercube.Node(zr) & mask
		r := routers[int(which)%len(routers)]
		path := Path(r, c, x, z, rng)
		cur := x
		for _, idx := range path {
			if idx < 0 || idx >= c.NumArcs() {
				return false
			}
			a := c.ArcAt(idx)
			if a.From != cur {
				return false
			}
			cur = a.To
		}
		return cur == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDimensionOrderPath(b *testing.B) {
	c := hypercube.New(10)
	rng := xrand.New(7)
	r := DimensionOrder{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Path(r, c, hypercube.Node(i&1023), hypercube.Node((i*31)&1023), rng)
	}
}

func BenchmarkValiantPath(b *testing.B) {
	c := hypercube.New(10)
	rng := xrand.New(8)
	r := ValiantTwoPhase{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Path(r, c, hypercube.Node(i&1023), hypercube.Node((i*31)&1023), rng)
	}
}
