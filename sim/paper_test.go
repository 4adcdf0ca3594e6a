package sim_test

import (
	"context"
	"math"
	"testing"

	"repro/sim"
)

// The tests in this file check the paper's claims on single runs: measured
// delays inside the Prop. 12/13 (hypercube) and Prop. 14/17 (butterfly)
// envelopes, the Prop. 5 and Prop. 15 utilisations, the M/D/1 behaviour of
// dimension-1 arcs, and the diagnosis of unstable loads.

func TestHypercubeConfigValidation(t *testing.T) {
	bad := []sim.Scenario{
		{Topology: sim.Hypercube(0), P: 0.5, Lambda: 1, Horizon: 100},
		{Topology: sim.Hypercube(25), P: 0.5, Lambda: 1, Horizon: 100},
		{Topology: sim.Hypercube(4), P: -0.1, Lambda: 1, Horizon: 100},
		{Topology: sim.Hypercube(4), P: 1.5, Lambda: 1, Horizon: 100},
		{Topology: sim.Hypercube(4), P: 0.5, Lambda: 1, Horizon: 0},
		{Topology: sim.Hypercube(4), P: 0.5, Lambda: -1, Horizon: 100},
		{Topology: sim.Hypercube(4), P: 0.5, Horizon: 100},                                   // neither rate given
		{Topology: sim.Hypercube(4), P: 0.5, Lambda: 1, LoadFactor: 0.5, Horizon: 100},       // both given
		{Topology: sim.Hypercube(4), P: 0, LoadFactor: 0.5, Horizon: 100},                    // cannot derive lambda
		{Topology: sim.Hypercube(4), P: 0.5, Lambda: 1, Horizon: 100, WarmupFraction: 1.5},   // bad warmup
		{Topology: sim.Hypercube(4), P: 0.5, Lambda: 1, Horizon: 100, Slotted: true},         // missing tau
		{Topology: sim.Hypercube(4), P: 0.5, Lambda: 1, Horizon: 100, Slotted: true, Tau: 2}, // tau > 1
	}
	for i, sc := range bad {
		if _, err := sim.Run(context.Background(), sc); err == nil {
			t.Fatalf("case %d: expected configuration error", i)
		}
	}
}

func TestButterflyConfigValidation(t *testing.T) {
	bad := []sim.Scenario{
		{Topology: sim.Butterfly(0), P: 0.5, Lambda: 1, Horizon: 100},
		{Topology: sim.Butterfly(4), P: 2, Lambda: 1, Horizon: 100},
		{Topology: sim.Butterfly(4), P: 0.5, Lambda: 1, Horizon: -5},
		{Topology: sim.Butterfly(4), P: 0.5, Horizon: 100},
		{Topology: sim.Butterfly(4), P: 0.5, Lambda: 1, LoadFactor: 0.5, Horizon: 100},
		{Topology: sim.Butterfly(4), P: 0.5, Lambda: 1, Horizon: 100, WarmupFraction: -0.1},
	}
	for i, sc := range bad {
		if _, err := sim.Run(context.Background(), sc); err == nil {
			t.Fatalf("case %d: expected configuration error", i)
		}
	}
}

func TestRouterKindStrings(t *testing.T) {
	if sim.GreedyDimensionOrder.String() == "" || sim.GreedyRandomOrder.String() == "" ||
		sim.ValiantTwoPhase.String() == "" || sim.RouterKind(9).String() == "" {
		t.Fatal("router kind names should not be empty")
	}
}

func TestHypercubeGreedyWithinBounds(t *testing.T) {
	// The headline reproduction: at d=6, p=1/2, rho=0.7 the measured delay
	// must fall between the Prop. 13 and Prop. 12 bounds.
	res := run(t, sim.Scenario{
		Topology: sim.Hypercube(6), P: 0.5, LoadFactor: 0.7, Horizon: 4000, Seed: 1,
	})
	h := res.Hypercube
	if math.Abs(res.LoadFactor-0.7) > 1e-12 {
		t.Fatalf("load factor %v", res.LoadFactor)
	}
	if res.MeanDelay < h.GreedyLowerBound-0.2 {
		t.Fatalf("delay %v below lower bound %v", res.MeanDelay, h.GreedyLowerBound)
	}
	if res.MeanDelay > h.GreedyUpperBound {
		t.Fatalf("delay %v above upper bound %v", res.MeanDelay, h.GreedyUpperBound)
	}
	if !res.WithinPaperBounds {
		t.Fatalf("WithinPaperBounds false: delay %v, bounds [%v, %v]",
			res.MeanDelay, h.GreedyLowerBound, h.GreedyUpperBound)
	}
	// The delay must also respect the universal and oblivious lower bounds.
	if res.MeanDelay < h.UniversalLowerBound || res.MeanDelay < h.ObliviousLowerBound {
		t.Fatalf("delay %v below a universal/oblivious lower bound (%v / %v)",
			res.MeanDelay, h.UniversalLowerBound, h.ObliviousLowerBound)
	}
	// Mean hops must be close to d*p = 3.
	if math.Abs(res.Metrics.MeanHops-3) > 0.1 {
		t.Fatalf("mean hops %v", res.Metrics.MeanHops)
	}
	// Little's law consistency inside the simulator.
	if res.Metrics.LittleLawError > 0.05 {
		t.Fatalf("Little's law error %v", res.Metrics.LittleLawError)
	}
}

func TestHypercubePerDimensionUtilizationMatchesProp5(t *testing.T) {
	// Proposition 5: every dimension's arcs carry total rate rho, so every
	// arc is busy a fraction rho of the time.
	h := run(t, sim.Scenario{
		Topology: sim.Hypercube(5), P: 0.5, LoadFactor: 0.6, Horizon: 5000, Seed: 2,
	}).Hypercube
	for j, u := range h.PerDimensionUtilization {
		if math.Abs(u-0.6) > 0.05 {
			t.Fatalf("dimension %d utilisation %v, want 0.6", j+1, u)
		}
	}
	// Dimension 1 arcs are pure M/D/1 queues: mean number rho + rho^2/(2(1-rho)).
	wantDim1 := 0.6 + 0.36/(2*0.4)
	if math.Abs(h.PerDimensionMeanQueue[0]-wantDim1) > 0.1 {
		t.Fatalf("dimension 1 mean queue %v, want %v", h.PerDimensionMeanQueue[0], wantDim1)
	}
	// Later dimensions hold at least rho packets per arc on average.
	for j := 1; j < len(h.PerDimensionMeanQueue); j++ {
		if h.PerDimensionMeanQueue[j] < 0.5 {
			t.Fatalf("dimension %d mean queue %v suspiciously small", j+1, h.PerDimensionMeanQueue[j])
		}
	}
}

func TestHypercubeLocalizedTraffic(t *testing.T) {
	// p = 0.25 with the same load factor: shorter paths, smaller delay, and
	// the bounds still hold.
	res := run(t, sim.Scenario{
		Topology: sim.Hypercube(6), P: 0.25, LoadFactor: 0.6, Horizon: 4000, Seed: 3,
	})
	if math.Abs(res.Metrics.MeanHops-1.5) > 0.1 {
		t.Fatalf("mean hops %v, want 1.5", res.Metrics.MeanHops)
	}
	if !res.WithinPaperBounds {
		t.Fatalf("delay %v outside [%v, %v]", res.MeanDelay, res.Hypercube.GreedyLowerBound, res.Hypercube.GreedyUpperBound)
	}
}

func TestHypercubeUnstableLoadDiagnosed(t *testing.T) {
	// rho = 1.2: bounds are undefined and the population grows steadily.
	res := run(t, sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 1.2, Horizon: 3000, Seed: 4,
		PopulationTraceInterval: 10,
	})
	if !math.IsNaN(res.Hypercube.GreedyUpperBound) || !math.IsNaN(res.Hypercube.GreedyLowerBound) {
		t.Fatal("bounds should be NaN for an unstable system")
	}
	if res.Metrics.PopulationSlope <= 0 {
		t.Fatalf("expected positive population slope, got %v", res.Metrics.PopulationSlope)
	}
	if res.WithinPaperBounds {
		t.Fatal("WithinPaperBounds must be false for an unstable system")
	}
}

func TestHypercubeStableLoadFlatPopulation(t *testing.T) {
	res := run(t, sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.6, Horizon: 5000, Seed: 5,
		PopulationTraceInterval: 10,
	})
	// The slope of a stable system is tiny compared to the unstable case
	// (which grows at order (rho-1)*lambda*2^d per unit time).
	if math.Abs(res.Metrics.PopulationSlope) > 0.05 {
		t.Fatalf("stable system population slope %v", res.Metrics.PopulationSlope)
	}
}

func TestHypercubeValiantRouterLongerPaths(t *testing.T) {
	sc := sim.Scenario{Topology: sim.Hypercube(5), P: 0.5, LoadFactor: 0.4, Horizon: 3000, Seed: 6}
	greedy := run(t, sc)
	sc.Router = sim.ValiantTwoPhase
	valiant := run(t, sc)
	// Valiant paths are about twice as long on average, so at the same
	// generation rate its delay and per-arc utilisation are higher.
	if valiant.Metrics.MeanHops < 1.5*greedy.Metrics.MeanHops {
		t.Fatalf("Valiant mean hops %v vs greedy %v", valiant.Metrics.MeanHops, greedy.Metrics.MeanHops)
	}
	if valiant.MeanDelay <= greedy.MeanDelay {
		t.Fatalf("Valiant delay %v should exceed greedy delay %v at equal load",
			valiant.MeanDelay, greedy.MeanDelay)
	}
}

func TestHypercubeRandomOrderRouterStillStable(t *testing.T) {
	res := run(t, sim.Scenario{
		Topology: sim.Hypercube(5), P: 0.5, LoadFactor: 0.7, Horizon: 3000, Seed: 7,
		Router: sim.GreedyRandomOrder, PopulationTraceInterval: 10,
	})
	if math.Abs(res.Metrics.PopulationSlope) > 0.05 {
		t.Fatalf("random dimension order appears unstable: slope %v", res.Metrics.PopulationSlope)
	}
	if res.Metrics.MeanHops < 2.4 || res.Metrics.MeanHops > 2.6 {
		t.Fatalf("mean hops %v, want ~2.5", res.Metrics.MeanHops)
	}
}

func TestHypercubeSlottedMode(t *testing.T) {
	res := run(t, sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.6, Horizon: 4000, Seed: 8,
		Slotted: true, Tau: 0.5,
	})
	h := res.Hypercube
	if math.IsNaN(h.SlottedUpperBound) {
		t.Fatal("slotted bound missing")
	}
	if h.SlottedUpperBound <= h.GreedyUpperBound {
		t.Fatal("slotted bound should exceed the continuous-time bound by tau")
	}
	if res.MeanDelay > h.SlottedUpperBound {
		t.Fatalf("slotted delay %v exceeds the §3.4 bound %v", res.MeanDelay, h.SlottedUpperBound)
	}
	if res.MeanDelay < h.GreedyLowerBound-0.2 {
		t.Fatalf("slotted delay %v below the continuous-time lower bound %v",
			res.MeanDelay, h.GreedyLowerBound)
	}
}

func TestHypercubeQuantilesTracked(t *testing.T) {
	res := run(t, sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.5, Horizon: 2000, Seed: 9, TrackQuantiles: true,
	})
	if math.IsNaN(res.DelayP95) || math.IsNaN(res.DelayP99) {
		t.Fatal("quantiles missing")
	}
	if res.DelayP95 < res.MeanDelay {
		t.Fatalf("P95 %v below the mean %v", res.DelayP95, res.MeanDelay)
	}
	if res.DelayP99 < res.DelayP95 {
		t.Fatalf("P99 %v below P95 %v", res.DelayP99, res.DelayP95)
	}
	// Without tracking, quantiles are NaN.
	res2 := run(t, sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.5, Horizon: 500, Seed: 9,
	})
	if !math.IsNaN(res2.DelayP95) {
		t.Fatal("expected NaN quantiles without tracking")
	}
}

func TestHypercubeReproducibleWithSameSeed(t *testing.T) {
	sc := sim.Scenario{Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.6, Horizon: 1000, Seed: 42}
	a, b := run(t, sc), run(t, sc)
	if a.MeanDelay != b.MeanDelay || a.Metrics.Delivered != b.Metrics.Delivered {
		t.Fatal("identical seeds produced different results")
	}
	sc.Seed = 43
	c := run(t, sc)
	if c.MeanDelay == a.MeanDelay && c.Metrics.Delivered == a.Metrics.Delivered {
		t.Fatal("different seeds produced identical results")
	}
}

func TestHypercubeRandomOrderDiscipline(t *testing.T) {
	res := run(t, sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.7, Horizon: 3000, Seed: 10,
		Discipline: sim.RandomOrder,
	})
	// The mean delay is insensitive to the service order, so the paper's
	// bounds still hold.
	if !res.WithinPaperBounds {
		t.Fatalf("random-order discipline delay %v outside [%v, %v]",
			res.MeanDelay, res.Hypercube.GreedyLowerBound, res.Hypercube.GreedyUpperBound)
	}
}

func TestButterflyGreedyWithinBounds(t *testing.T) {
	res := run(t, sim.Scenario{
		Topology: sim.Butterfly(5), P: 0.5, LoadFactor: 0.7, Horizon: 5000, Seed: 11,
	})
	b := res.Butterfly
	if res.MeanDelay < b.UniversalLowerBound-0.1 {
		t.Fatalf("delay %v below the Prop. 14 bound %v", res.MeanDelay, b.UniversalLowerBound)
	}
	if res.MeanDelay > b.GreedyUpperBound {
		t.Fatalf("delay %v above the Prop. 17 bound %v", res.MeanDelay, b.GreedyUpperBound)
	}
	if !res.WithinPaperBounds {
		t.Fatal("WithinPaperBounds false")
	}
	// Every packet crosses exactly d arcs.
	if math.Abs(res.Metrics.MeanHops-5) > 1e-9 {
		t.Fatalf("mean hops %v, want exactly 5", res.Metrics.MeanHops)
	}
	// Proposition 15: both arc types busy a fraction lambda*p = 0.7.
	if math.Abs(b.VerticalUtilization-0.7) > 0.05 || math.Abs(b.StraightUtilization-0.7) > 0.05 {
		t.Fatalf("utilisations straight %v vertical %v, want 0.7",
			b.StraightUtilization, b.VerticalUtilization)
	}
}

func TestButterflyAsymmetricTraffic(t *testing.T) {
	// p = 0.25: straight arcs carry three times the vertical traffic.
	res := run(t, sim.Scenario{
		Topology: sim.Butterfly(4), P: 0.25, Lambda: 1.0, Horizon: 5000, Seed: 12,
	})
	b := res.Butterfly
	if math.Abs(res.LoadFactor-0.75) > 1e-12 {
		t.Fatalf("load factor %v", res.LoadFactor)
	}
	if math.Abs(b.StraightUtilization-0.75) > 0.05 {
		t.Fatalf("straight utilisation %v, want 0.75", b.StraightUtilization)
	}
	if math.Abs(b.VerticalUtilization-0.25) > 0.05 {
		t.Fatalf("vertical utilisation %v, want 0.25", b.VerticalUtilization)
	}
	if !res.WithinPaperBounds {
		t.Fatalf("delay %v outside [%v, %v]", res.MeanDelay, b.UniversalLowerBound, b.GreedyUpperBound)
	}
}

func TestButterflyUnstable(t *testing.T) {
	res := run(t, sim.Scenario{
		Topology: sim.Butterfly(4), P: 0.5, LoadFactor: 1.15, Horizon: 2000, Seed: 13,
		PopulationTraceInterval: 10,
	})
	if !math.IsNaN(res.Butterfly.GreedyUpperBound) {
		t.Fatal("upper bound should be NaN when unstable")
	}
	if res.Metrics.PopulationSlope <= 0 {
		t.Fatalf("expected growing population, slope %v", res.Metrics.PopulationSlope)
	}
}

func TestButterflyQuantiles(t *testing.T) {
	res := run(t, sim.Scenario{
		Topology: sim.Butterfly(3), P: 0.5, LoadFactor: 0.5, Horizon: 2000, Seed: 14, TrackQuantiles: true,
	})
	if math.IsNaN(res.DelayP95) || res.DelayP95 < float64(3) {
		t.Fatalf("P95 = %v", res.DelayP95)
	}
	if res.MeanPacketsPerNode <= 0 {
		t.Fatalf("per-node packets %v", res.MeanPacketsPerNode)
	}
}

func TestButterflyReproducible(t *testing.T) {
	sc := sim.Scenario{Topology: sim.Butterfly(3), P: 0.5, LoadFactor: 0.6, Horizon: 1000, Seed: 7}
	if run(t, sc).MeanDelay != run(t, sc).MeanDelay {
		t.Fatal("same seed gave different butterfly results")
	}
}

func TestPerDimensionWaitProfile(t *testing.T) {
	// The per-dimension sojourn time at an arc is at least the unit
	// transmission time everywhere; dimension 1 arcs are exact M/D/1 queues
	// (sojourn 1 + rho/(2(1-rho))), and higher dimensions face at least as
	// much contention on average (the observation behind the conjecture at
	// the end of §3.3).
	rho := 0.8
	wait := run(t, sim.Scenario{
		Topology: sim.Hypercube(5), P: 0.5, LoadFactor: rho, Horizon: 6000, Seed: 21,
		TrackPerDimensionWait: true,
	}).Hypercube.PerDimensionMeanWait
	if len(wait) != 5 {
		t.Fatalf("per-dimension wait has %d entries", len(wait))
	}
	md1 := 1 + rho/(2*(1-rho))
	if math.Abs(wait[0]-md1) > 0.15 {
		t.Fatalf("dimension 1 sojourn %v, M/D/1 predicts %v", wait[0], md1)
	}
	for j, w := range wait {
		if w < 1-1e-9 {
			t.Fatalf("dimension %d sojourn %v below the service time", j+1, w)
		}
	}
	// Later dimensions see feed-through traffic whose arrivals are no longer
	// Poisson; their mean sojourn should not be dramatically smaller than
	// dimension 1's.
	for j := 1; j < len(wait); j++ {
		if wait[j] < 0.8*wait[0] {
			t.Fatalf("dimension %d sojourn %v much smaller than dimension 1's %v", j+1, wait[j], wait[0])
		}
	}
	// Without the flag the slice is absent.
	res2 := run(t, sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.5, Horizon: 500, Seed: 21,
	})
	if res2.Hypercube.PerDimensionMeanWait != nil {
		t.Fatal("per-dimension wait reported without the tracking flag")
	}
}

func TestPerDimensionLoadFactorBitFlip(t *testing.T) {
	res := run(t, sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.6, Horizon: 800, Seed: 22,
	})
	for j, l := range res.Hypercube.PerDimensionLoadFactor {
		if math.Abs(l-0.6) > 1e-9 {
			t.Fatalf("dimension %d load factor %v, want 0.6", j+1, l)
		}
	}
}

func TestCustomWeightsValidation(t *testing.T) {
	bad := []sim.Scenario{
		{Topology: sim.Hypercube(3), Lambda: 1, Horizon: 100, CustomWeights: []float64{1, 2}},                         // wrong length
		{Topology: sim.Hypercube(2), Lambda: 1, Horizon: 100, CustomWeights: []float64{1, -1, 0, 0}},                  // negative
		{Topology: sim.Hypercube(2), Lambda: 1, Horizon: 100, CustomWeights: []float64{0, 0, 0, 0}},                   // all zero
		{Topology: sim.Hypercube(2), P: 0.5, LoadFactor: 0.5, Horizon: 100, CustomWeights: []float64{0.5, 0.5, 0, 0}}, // LoadFactor not allowed
		{Topology: sim.Hypercube(2), Horizon: 100, CustomWeights: []float64{0.5, 0.5, 0, 0}},                          // no Lambda
		{Topology: sim.Hypercube(2), Lambda: 1, Horizon: 100, CustomWeights: []float64{0.5, math.NaN(), 0, 0}},        // NaN weight
	}
	for i, sc := range bad {
		if _, err := sim.Run(context.Background(), sc); err == nil {
			t.Fatalf("case %d: expected configuration error", i)
		}
	}
}

func TestCustomWeightsAsymmetricTraffic(t *testing.T) {
	// All traffic crosses dimension 1 only (difference vector 001): the
	// dimension-1 arcs carry load lambda while every other dimension idles.
	d := 3
	weights := make([]float64, 1<<uint(d))
	weights[1] = 1
	res := run(t, sim.Scenario{
		Topology: sim.Hypercube(d), Lambda: 0.7, Horizon: 4000, Seed: 23, CustomWeights: weights,
	})
	h := res.Hypercube
	if math.Abs(res.LoadFactor-0.7) > 1e-9 {
		t.Fatalf("load factor %v, want 0.7 (max over dimensions)", res.LoadFactor)
	}
	if math.Abs(h.PerDimensionLoadFactor[0]-0.7) > 1e-9 ||
		h.PerDimensionLoadFactor[1] != 0 || h.PerDimensionLoadFactor[2] != 0 {
		t.Fatalf("per-dimension load factors %v", h.PerDimensionLoadFactor)
	}
	if math.Abs(h.PerDimensionUtilization[0]-0.7) > 0.05 {
		t.Fatalf("dimension 1 utilisation %v, want ~0.7", h.PerDimensionUtilization[0])
	}
	if h.PerDimensionUtilization[1] > 0.01 || h.PerDimensionUtilization[2] > 0.01 {
		t.Fatalf("idle dimensions show utilisation %v", h.PerDimensionUtilization[1:])
	}
	// Every packet crosses exactly one arc, which behaves as an M/D/1 queue.
	wantDelay := 1 + 0.7/(2*(1-0.7))
	if math.Abs(res.MeanDelay-wantDelay) > 0.1 {
		t.Fatalf("delay %v, M/D/1 predicts %v", res.MeanDelay, wantDelay)
	}
	// The bit-flip-specific bounds are not reported for custom traffic.
	if !math.IsNaN(h.GreedyUpperBound) || !math.IsNaN(h.GreedyLowerBound) {
		t.Fatal("greedy bounds should be NaN for custom traffic")
	}
	if math.Abs(res.Metrics.MeanHops-1) > 1e-9 {
		t.Fatalf("mean hops %v, want exactly 1", res.Metrics.MeanHops)
	}
}

func TestCustomWeightsEquivalentToBitFlip(t *testing.T) {
	// Supplying the bit-flip weight table explicitly must reproduce the same
	// per-dimension load factors as the built-in distribution.
	d := 4
	p := 0.3
	lambda := 1.5
	weights := make([]float64, 1<<uint(d))
	for v := range weights {
		k := 0
		for m := 0; m < d; m++ {
			if v&(1<<uint(m)) != 0 {
				k++
			}
		}
		weights[v] = math.Pow(p, float64(k)) * math.Pow(1-p, float64(d-k))
	}
	res := run(t, sim.Scenario{
		Topology: sim.Hypercube(d), Lambda: lambda, Horizon: 2000, Seed: 24, CustomWeights: weights,
	})
	for j, l := range res.Hypercube.PerDimensionLoadFactor {
		if math.Abs(l-lambda*p) > 1e-9 {
			t.Fatalf("dimension %d load %v, want %v", j+1, l, lambda*p)
		}
	}
	if math.Abs(res.Metrics.MeanHops-float64(d)*p) > 0.15 {
		t.Fatalf("mean hops %v, want %v", res.Metrics.MeanHops, float64(d)*p)
	}
}
