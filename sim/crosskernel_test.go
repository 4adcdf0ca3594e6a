package sim_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
	"repro/sim"
)

// bitsEqSlice compares float slices bitwise: agreement with the oracle is
// exact, not approximate.
func bitsEqSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// run executes sc and fails the test on an error.
func run(t *testing.T, sc sim.Scenario) *sim.Result {
	t.Helper()
	res, err := sim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// utilizationTolerance bounds the relative difference between a group's arc
// utilisation on the kernel and on the oracle. The two integrate the same
// services over the same window [w, T], but the kernel adds them into one
// sum per group in completion order and the oracle per arc first, so the
// last bits may differ.
const utilizationTolerance = 1e-12

// checkOracle runs sc on the slot kernel, with the exact delay sample on,
// and on the reference simulator (internal/oracle), and fails on any
// difference in the packet counts or in any bit of any delay, compared in
// delivery order, and on a per-group arc utilisation further than
// utilizationTolerance from the oracle's per-arc busy fractions.
func checkOracle(t *testing.T, sc sim.Scenario) {
	t.Helper()
	sc.TrackQuantiles, sc.ReturnDelays = true, true
	res := run(t, sc)
	ref, err := sim.RunOracle(sc)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	got := [5]int64{m.Generated, m.Delivered, m.DroppedFault, m.DroppedOverflow, m.InFlight}
	want := [5]int64{ref.Generated, ref.Delivered, ref.DroppedFault, ref.DroppedOverflow, ref.InFlight}
	if got != want {
		t.Errorf("generated/delivered/fault/overflow/in-flight: kernel %v, oracle %v", got, want)
	}
	if !bitsEqSlice(res.Delays, ref.Delays) {
		i := 0
		for i < min(len(res.Delays), len(ref.Delays)) && bitsEq(res.Delays[i], ref.Delays[i]) {
			i++
		}
		t.Errorf("per-packet delays differ from delivery %d on (%d vs %d delays)", i, len(res.Delays), len(ref.Delays))
	}
	groups := m.GroupArcUtilization
	block := len(ref.Utilization) / len(groups) // groups are contiguous blocks of arcs
	for g, got := range groups {
		want := 0.0
		for _, u := range ref.Utilization[g*block : (g+1)*block] {
			want += u
		}
		want /= float64(block)
		if math.Abs(got-want) > utilizationTolerance*math.Abs(want) {
			t.Errorf("group %d arc utilisation: kernel %v, oracle %v", g, got, want)
		}
	}
	if sc.Faults != nil && ref.DroppedFault+ref.DroppedOverflow == 0 {
		t.Error("fault variant recorded no drops; the loss path was not exercised")
	}
}

// fullFaults is the whole fault model: transient faults, finite buffers and
// scheduled outages, one of them over explicit arcs and one ending off the
// slot grid.
func fullFaults() *sim.FaultSpec {
	return &sim.FaultSpec{
		ArcFailProb:    0.01,
		BufferCapacity: 3,
		Outages: []sim.Outage{
			{From: 80, Until: 160, Fraction: 0.25},
			{From: 160, Until: 170, Arcs: []int{0, 1, 2, 5}},
			{From: 200.25, Until: 233.5, Fraction: 0.5},
		},
	}
}

// sharedHypercubeVariants are the configuration variants both hypercube
// oracle tests run, under either arrival model: every router, the optional
// observability hooks, an unstable load, custom weights, the three fault
// variants (the loss accounting must agree too) and the RandomOrder
// discipline, alone, unstable and under the full fault model.
var sharedHypercubeVariants = []func(*sim.Scenario){
	func(c *sim.Scenario) { c.Router = sim.GreedyRandomOrder },
	func(c *sim.Scenario) { c.Router = sim.ValiantTwoPhase; c.LoadFactor = 0.3 },
	func(c *sim.Scenario) { c.TrackPerDimensionWait = true },
	func(c *sim.Scenario) { c.PopulationTraceInterval = 25 },
	func(c *sim.Scenario) { c.LoadFactor = 1.2 }, // unstable: leftovers in flight
	func(c *sim.Scenario) {
		c.LoadFactor = 0
		c.Lambda = 1.0
		c.CustomWeights = []float64{0, 1, 1, 0.5, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 3}
	},
	// Fault-model variants: transient faults alone, finite buffers alone,
	// and the full model with scheduled outages.
	func(c *sim.Scenario) { c.Faults = &sim.FaultSpec{ArcFailProb: 0.02} },
	func(c *sim.Scenario) { c.Faults = &sim.FaultSpec{BufferCapacity: 1}; c.LoadFactor = 0.9 },
	func(c *sim.Scenario) { c.Faults = fullFaults() },
	func(c *sim.Scenario) { c.Discipline = sim.RandomOrder },
	func(c *sim.Scenario) { c.Discipline = sim.RandomOrder; c.LoadFactor = 1.2 },
	func(c *sim.Scenario) { c.Discipline = sim.RandomOrder; c.Faults = fullFaults() },
}

// runHypercubeVariants runs checkOracle on base modified by each variant, as
// subtests variant0, variant1, ...
func runHypercubeVariants(t *testing.T, base sim.Scenario, variants []func(*sim.Scenario)) {
	for i, mod := range variants {
		sc := base
		mod(&sc)
		t.Run(fmt.Sprintf("variant%d", i), func(t *testing.T) { checkOracle(t, sc) })
	}
}

// TestCrossKernelGoldenHypercubeSlotted pins the slot kernel to the
// reference simulator on the §3.4 slotted model: for every configuration the
// two count the same packets and measure bit-identical per-packet delays, in
// the same delivery order, on the same seed.
func TestCrossKernelGoldenHypercubeSlotted(t *testing.T) {
	base := sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.7, Horizon: 400, Seed: 12345,
		Slotted: true, Tau: 0.5,
	}
	variants := append([]func(*sim.Scenario){
		func(c *sim.Scenario) {},
		func(c *sim.Scenario) { c.Tau = 1.0 },
		func(c *sim.Scenario) { c.Tau = 0.25; c.Topology.D = 5; c.Seed = 99 },
	}, sharedHypercubeVariants...)
	runHypercubeVariants(t, base, variants)
}

// TestCrossKernelSlotScale pins the slot kernel to the oracle at scale: the
// perfbench slot-scale point, a slotted 16-cube with 2^20 arcs, runs the
// kernel with its cache prefetches on. The oracle takes a few seconds there,
// so the test skips in -short mode and under the race detector.
func TestCrossKernelSlotScale(t *testing.T) {
	if testing.Short() || sim.RaceEnabled {
		t.Skip("skipping the 2^20-arc oracle run in -short mode and under -race")
	}
	checkOracle(t, sim.Scenario{
		Topology: sim.Hypercube(16), P: 0.5, LoadFactor: 0.7, Horizon: 4, Seed: 1,
		Slotted: true, Tau: 1, SkipPerDimensionStats: true,
	})
}

// TestCrossKernelGoldenHypercubeContinuous is the same check on the paper's
// headline model, continuous-time Poisson arrivals. At p = 1/2 the kernel's
// block sampler takes its FillUint64 path; other p and custom weights take
// the scalar fallback; every router, randomized ones included, samples its
// arrivals ahead in blocks.
func TestCrossKernelGoldenHypercubeContinuous(t *testing.T) {
	base := sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.7, Horizon: 400, Seed: 12345,
	}
	variants := append([]func(*sim.Scenario){
		func(c *sim.Scenario) {},
		func(c *sim.Scenario) { c.P = 0.3; c.Topology.D = 5; c.Seed = 99 },
		func(c *sim.Scenario) { c.Topology.D = 10; c.LoadFactor = 0.8; c.Horizon = 40; c.Seed = 7 },
		func(c *sim.Scenario) { c.Topology.D = 10; c.P = 0.3; c.LoadFactor = 0.8; c.Horizon = 40; c.Seed = 8 },
	}, sharedHypercubeVariants...)
	runHypercubeVariants(t, base, variants)
}

// TestCrossKernelGoldenButterfly is the butterfly (continuous-time) half of
// the oracle check.
func TestCrossKernelGoldenButterfly(t *testing.T) {
	scs := []sim.Scenario{
		{Topology: sim.Butterfly(4), P: 0.5, LoadFactor: 0.8, Horizon: 400, Seed: 7},
		{Topology: sim.Butterfly(5), P: 0.3, LoadFactor: 0.6, Horizon: 300, Seed: 21},
		{Topology: sim.Butterfly(3), P: 0.7, Lambda: 1.9, Horizon: 500, Seed: 3, PopulationTraceInterval: 20},
		{Topology: sim.Butterfly(4), P: 0.5, LoadFactor: 1.3, Horizon: 200, Seed: 5}, // unstable
		// Fault-model configs on the continuous-time (butterfly) path.
		{Topology: sim.Butterfly(4), P: 0.5, LoadFactor: 0.8, Horizon: 400, Seed: 11,
			Faults: &sim.FaultSpec{ArcFailProb: 0.03}},
		{Topology: sim.Butterfly(3), P: 0.4, LoadFactor: 0.9, Horizon: 300, Seed: 13,
			Faults: &sim.FaultSpec{
				BufferCapacity: 2,
				Outages: []sim.Outage{
					{From: 60, Until: 120.5, Fraction: 0.3},
					{From: 150, Until: 151, Arcs: []int{3, 4}},
				},
			}},
		{Topology: sim.Butterfly(4), P: 0.5, LoadFactor: 0.8, Horizon: 400, Seed: 7,
			Discipline: sim.RandomOrder, Faults: &sim.FaultSpec{BufferCapacity: 2, ArcFailProb: 0.01}},
	}
	for i, sc := range scs {
		t.Run(fmt.Sprintf("config%d", i), func(t *testing.T) { checkOracle(t, sc) })
	}
}

// TestCrossKernelRandomConfigs is the property-test half of the oracle
// check: pseudo-random configurations must agree with the oracle too. Every
// third trial serves its arcs in random order.
func TestCrossKernelRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping property test in -short mode")
	}
	rng := xrand.New(0xC0FFEE)
	taus := []float64{0.125, 0.25, 0.5, 1.0}
	for trial := 0; trial < 16; trial++ {
		seed := rng.Uint64()
		var sc sim.Scenario
		if trial%2 == 0 {
			// Hypercube trials h = 0..7 alternate slotted and continuous
			// arrivals, use p = 1/2 (the bulk sampler's FillUint64 path) in
			// half of them, and cycle the router every two trials, so each
			// arrival model meets greedy routing at both kinds of p.
			h := trial / 2
			sc = sim.Scenario{
				Topology:   sim.Hypercube(2 + rng.Intn(4)),
				P:          0.2 + 0.6*rng.Float64(),
				LoadFactor: 0.2 + 0.7*rng.Float64(),
				Horizon:    100 + 50*float64(rng.Intn(4)),
				Seed:       seed,
				Slotted:    h%2 == 0,
				Router:     sim.RouterKind(h / 2 % 3),
			}
			if sc.Slotted {
				sc.Tau = taus[rng.Intn(len(taus))]
			}
			if h%4 < 2 {
				sc.P = 0.5
			}
		} else {
			sc = sim.Scenario{
				Topology:   sim.Butterfly(2 + rng.Intn(4)),
				P:          0.2 + 0.6*rng.Float64(),
				LoadFactor: 0.2 + 0.7*rng.Float64(),
				Horizon:    100 + 50*float64(rng.Intn(4)),
				Seed:       seed,
			}
		}
		if trial%3 == 0 {
			sc.Discipline = sim.RandomOrder
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) { checkOracle(t, sc) })
	}
}

// TestKernelSelection pins which kernel runs what: every store-and-forward
// scenario, under either arrival model and either discipline, runs on the
// slot kernel, and deflection routing on its own kernel.
func TestKernelSelection(t *testing.T) {
	hyper := func(mod func(*sim.Scenario)) sim.Scenario {
		sc := sim.Scenario{Topology: sim.Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 50, Seed: 1}
		mod(&sc)
		return sc
	}
	cases := []struct {
		name string
		sc   sim.Scenario
		want string
	}{
		{"poisson FIFO", hyper(func(c *sim.Scenario) {}), sim.KernelSlotStepped},
		{"poisson random-order", hyper(func(c *sim.Scenario) { c.Discipline = sim.RandomOrder }), sim.KernelSlotStepped},
		{"poisson valiant", hyper(func(c *sim.Scenario) { c.Router = sim.ValiantTwoPhase }), sim.KernelSlotStepped},
		{"slotted random-order", hyper(func(c *sim.Scenario) {
			c.Slotted = true
			c.Tau = 0.5
			c.Discipline = sim.RandomOrder
		}), sim.KernelSlotStepped},
		{"butterfly random-order", sim.Scenario{Topology: sim.Butterfly(3), P: 0.5, LoadFactor: 0.5, Horizon: 50, Seed: 1,
			Discipline: sim.RandomOrder}, sim.KernelSlotStepped},
		{"deflection", hyper(func(c *sim.Scenario) { c.Router = sim.Deflection }), sim.KernelDeflection},
	}
	for _, tc := range cases {
		res, err := sim.Run(context.Background(), tc.sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Kernel != tc.want {
			t.Errorf("%s: kernel = %s, want %s", tc.name, res.Kernel, tc.want)
		}
	}
}
