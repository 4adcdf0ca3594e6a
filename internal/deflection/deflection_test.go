package deflection

import (
	"math"
	"testing"
	"testing/quick"
)

// TestPacketConservation checks the collector's accounting: without a
// warm-up every generated packet is delivered, dropped or still in the
// system at the end, exactly; with one, the window's delivered and dropped
// packets are among the packets it generated, and those are all accounted
// for once the packets still in the system (some generated before the
// window) are added. p = 0.5 makes some packets zero-distance.
func TestPacketConservation(t *testing.T) {
	for _, fail := range []float64{0, 0.05} {
		for _, warmup := range []float64{0, 0.2} {
			res, err := Run(Config{D: 4, Lambda: 1.5, P: 0.5, Slots: 400, Seed: 8,
				WarmupFraction: warmup, ArcFailProb: fail})
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if m.DroppedOverflow != 0 || (fail == 0) != (m.DroppedFault == 0) {
				t.Fatalf("fail %v: drops %d fault, %d overflow", fail, m.DroppedFault, m.DroppedOverflow)
			}
			decided := m.Delivered + m.DroppedFault + m.DroppedOverflow
			if warmup == 0 && m.Generated != decided+m.InFlight {
				t.Errorf("fail %v: generated %d != delivered %d + dropped %d + in flight %d",
					fail, m.Generated, m.Delivered, m.DroppedFault, m.InFlight)
			}
			if warmup > 0 && (decided > m.Generated || m.Generated > decided+m.InFlight) {
				t.Errorf("fail %v, warm-up %v: generated %d outside [%d, %d]",
					fail, warmup, m.Generated, decided, decided+m.InFlight)
			}
		}
	}
}

func TestLowLoadNoDeflections(t *testing.T) {
	// With a nearly empty network every packet always finds a profitable
	// port: delay equals the Hamming distance plus nothing, and deflections
	// are (almost) absent.
	res, err := Run(Config{D: 5, Lambda: 0.01, P: 0.5, Slots: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.MeanDeflections > 0.05 {
		t.Fatalf("mean deflections %v at trivial load", res.MeanDeflections)
	}
	if math.Abs(res.Metrics.MeanHops-res.MeanShortest) > 0.1 {
		t.Fatalf("hops %v vs shortest %v at trivial load", res.Metrics.MeanHops, res.MeanShortest)
	}
	// Delay per packet is its hop count at this load (one hop per slot, no
	// injection wait), plus at most a fraction of a slot of discretisation.
	if res.Metrics.MeanDelay < res.Metrics.MeanHops-1e-9 || res.Metrics.MeanDelay > res.Metrics.MeanHops+1.1 {
		t.Fatalf("delay %v vs hops %v", res.Metrics.MeanDelay, res.Metrics.MeanHops)
	}
	if res.MaxNodeOccupancy > 5 {
		t.Fatalf("occupancy %d exceeds d", res.MaxNodeOccupancy)
	}
}

func TestModerateLoadStatistics(t *testing.T) {
	res, err := Run(Config{D: 5, Lambda: 0.8, P: 0.5, Slots: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Hop count always at least the shortest distance, and shortest distance
	// close to d*p = 2.5 on average.
	if res.Metrics.MeanHops < res.MeanShortest-1e-9 {
		t.Fatalf("hops %v below shortest %v", res.Metrics.MeanHops, res.MeanShortest)
	}
	if math.Abs(res.MeanShortest-2.5) > 0.2 {
		t.Fatalf("mean shortest %v, want ~2.5", res.MeanShortest)
	}
	// Consistency: hops = shortest + 2*deflections.
	if math.Abs(res.Metrics.MeanHops-(res.MeanShortest+2*res.MeanDeflections)) > 1e-9 {
		t.Fatalf("hops %v != shortest %v + 2*deflections %v",
			res.Metrics.MeanHops, res.MeanShortest, res.MeanDeflections)
	}
	// The node-occupancy invariant d must never be violated.
	if res.MaxNodeOccupancy > 5 {
		t.Fatalf("occupancy %d exceeds d = 5", res.MaxNodeOccupancy)
	}
	// Delay includes injection wait, so it is at least the hop count.
	if res.Metrics.MeanDelay < res.Metrics.MeanHops-1e-9 {
		t.Fatalf("delay %v below hops %v", res.Metrics.MeanDelay, res.Metrics.MeanHops)
	}
}

func TestHigherLoadMoreDeflections(t *testing.T) {
	low, err := Run(Config{D: 5, Lambda: 0.2, P: 0.5, Slots: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(Config{D: 5, Lambda: 1.2, P: 0.5, Slots: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if high.MeanDeflections <= low.MeanDeflections {
		t.Fatalf("deflections did not increase with load: %v vs %v",
			low.MeanDeflections, high.MeanDeflections)
	}
	if high.Metrics.MeanDelay <= low.Metrics.MeanDelay {
		t.Fatalf("delay did not increase with load: %v vs %v", low.Metrics.MeanDelay, high.Metrics.MeanDelay)
	}
	if high.Metrics.GroupMeanPopulation[0] <= low.Metrics.GroupMeanPopulation[0] {
		t.Fatal("network population did not increase with load")
	}
}

func TestStableLoadFlatBacklog(t *testing.T) {
	res, err := Run(Config{D: 5, Lambda: 0.6, P: 0.5, Slots: 4000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectionBacklogSlope > 0.05 {
		t.Fatalf("injection backlog growing at moderate load: slope %v", res.InjectionBacklogSlope)
	}
	if res.MeanInjectionBacklog > float64(32) {
		t.Fatalf("mean injection backlog %v unexpectedly large", res.MeanInjectionBacklog)
	}
}

func TestOverloadBacklogGrows(t *testing.T) {
	// Generating more packets than the network can absorb (lambda*d*p beyond
	// the port capacity) must show up as a growing injection backlog.
	res, err := Run(Config{D: 4, Lambda: 3.5, P: 0.5, Slots: 2500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectionBacklogSlope <= 0.05 {
		t.Fatalf("expected growing injection backlog, slope %v", res.InjectionBacklogSlope)
	}
}

func TestZeroDistancePacketsCountedWithZeroDelay(t *testing.T) {
	// With p = 0 every packet is destined to its origin: all delays are 0.
	res, err := Run(Config{D: 4, Lambda: 0.5, P: 0, Slots: 500, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.Metrics.MeanDelay != 0 || res.Metrics.MeanHops != 0 {
		t.Fatalf("p=0 should give zero delay/hops, got %v/%v", res.Metrics.MeanDelay, res.Metrics.MeanHops)
	}
	if pop := res.Metrics.GroupMeanPopulation[0]; pop != 0 {
		t.Fatalf("network population %v with p=0", pop)
	}
}

func TestAntipodalTraffic(t *testing.T) {
	// p = 1: every packet must cross all d dimensions; shortest distance d.
	res, err := Run(Config{D: 4, Lambda: 0.3, P: 1, Slots: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanShortest != 4 {
		t.Fatalf("mean shortest %v, want exactly 4", res.MeanShortest)
	}
	if res.Metrics.MeanHops < 4 {
		t.Fatalf("mean hops %v below 4", res.Metrics.MeanHops)
	}
}

func TestReproducible(t *testing.T) {
	a, err := Run(Config{D: 4, Lambda: 0.7, P: 0.5, Slots: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{D: 4, Lambda: 0.7, P: 0.5, Slots: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.MeanDelay != b.Metrics.MeanDelay || a.Metrics.Delivered != b.Metrics.Delivered {
		t.Fatal("same seed gave different results")
	}
	c, err := Run(Config{D: 4, Lambda: 0.7, P: 0.5, Slots: 1000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics.MeanDelay == a.Metrics.MeanDelay && c.Metrics.Delivered == a.Metrics.Delivered {
		t.Fatal("different seeds gave identical results")
	}
}

// Property: for any load and p, the invariants hops >= shortest,
// hops = shortest + 2*deflections and occupancy <= d hold.
func TestQuickInvariants(t *testing.T) {
	f := func(lambdaRaw, pRaw, seed uint8) bool {
		lambda := float64(lambdaRaw) / 128 // up to ~2 packets per node per slot
		p := float64(pRaw) / 255
		res, err := Run(Config{D: 4, Lambda: lambda, P: p, Slots: 300, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		if res.MaxNodeOccupancy > 4 {
			return false
		}
		if res.Metrics.MeanHops < res.MeanShortest-1e-9 {
			return false
		}
		return math.Abs(res.Metrics.MeanHops-(res.MeanShortest+2*res.MeanDeflections)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeflectionRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{D: 6, Lambda: 0.8, P: 0.5, Slots: 500, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
}
