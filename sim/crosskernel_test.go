package sim_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/network"
	"repro/internal/xrand"
	"repro/sim"
)

// bitsEqSlice compares float slices bitwise: cross-kernel identity is exact,
// not approximate.
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

// compareMetrics fails the test with a field name if two snapshots differ in
// any bit.
func compareMetrics(t *testing.T, label string, a, b network.Metrics) {
	t.Helper()
	scalars := []struct {
		name string
		x, y float64
	}{
		{"Elapsed", a.Elapsed, b.Elapsed},
		{"MeanDelay", a.MeanDelay, b.MeanDelay},
		{"DelayStdDev", a.DelayStdDev, b.DelayStdDev},
		{"DelayCI95", a.DelayCI95, b.DelayCI95},
		{"MaxDelay", a.MaxDelay, b.MaxDelay},
		{"MeanHops", a.MeanHops, b.MeanHops},
		{"Throughput", a.Throughput, b.Throughput},
		{"MeanPopulation", a.MeanPopulation, b.MeanPopulation},
		{"MaxPopulation", a.MaxPopulation, b.MaxPopulation},
		{"PopulationSlope", a.PopulationSlope, b.PopulationSlope},
		{"LittleLawError", a.LittleLawError, b.LittleLawError},
	}
	for _, s := range scalars {
		if !bitsEq(s.x, s.y) {
			t.Errorf("%s: %s differs: %v vs %v", label, s.name, s.x, s.y)
		}
	}
	if a.Delivered != b.Delivered || a.Generated != b.Generated || a.InFlight != b.InFlight {
		t.Errorf("%s: counters differ: %d/%d/%d vs %d/%d/%d", label,
			a.Delivered, a.Generated, a.InFlight, b.Delivered, b.Generated, b.InFlight)
	}
	if a.DroppedFault != b.DroppedFault || a.DroppedOverflow != b.DroppedOverflow {
		t.Errorf("%s: drop counters differ: %d/%d vs %d/%d", label,
			a.DroppedFault, a.DroppedOverflow, b.DroppedFault, b.DroppedOverflow)
	}
	vectors := []struct {
		name string
		x, y []float64
	}{
		{"GroupMeanPopulation", a.GroupMeanPopulation, b.GroupMeanPopulation},
		{"GroupArcUtilization", a.GroupArcUtilization, b.GroupArcUtilization},
		{"GroupArrivalRate", a.GroupArrivalRate, b.GroupArrivalRate},
		{"GroupMeanWait", a.GroupMeanWait, b.GroupMeanWait},
	}
	for _, v := range vectors {
		if !bitsEqSlice(v.x, v.y) {
			t.Errorf("%s: %s differs:\n%v\nvs\n%v", label, v.name, v.x, v.y)
		}
	}
	if len(a.MeanDelayByClass) != len(b.MeanDelayByClass) {
		t.Errorf("%s: class map sizes differ", label)
	}
	for cls, x := range a.MeanDelayByClass {
		if y, ok := b.MeanDelayByClass[cls]; !ok || !bitsEq(x, y) {
			t.Errorf("%s: class %d delay differs: %v vs %v", label, cls, x, y)
		}
	}
}

// checkHypercubeIdentity runs sc on the slot-stepped kernel and on the
// event-driven oracle and fails on any bit of difference in the metrics, the
// per-packet delays, the quantiles or the per-dimension statistics.
func checkHypercubeIdentity(t *testing.T, sc sim.Scenario) {
	t.Helper()
	fast := run(t, sc)
	slow := sc
	slow.ForceEventDriven = true
	ref := run(t, slow)
	if fast.Kernel != sim.KernelSlotStepped || ref.Kernel != sim.KernelEventDriven {
		t.Fatalf("kernels: %s vs %s", fast.Kernel, ref.Kernel)
	}
	compareMetrics(t, "metrics", fast.Metrics, ref.Metrics)
	if !bitsEqSlice(fast.Delays, ref.Delays) {
		t.Errorf("per-packet delays differ (%d vs %d samples)", len(fast.Delays), len(ref.Delays))
	}
	if !bitsEq(fast.DelayP95, ref.DelayP95) || !bitsEq(fast.DelayP99, ref.DelayP99) {
		t.Errorf("quantiles differ: %v/%v vs %v/%v", fast.DelayP95, fast.DelayP99, ref.DelayP95, ref.DelayP99)
	}
	f, r := fast.Hypercube, ref.Hypercube
	if !bitsEqSlice(f.PerDimensionMeanQueue, r.PerDimensionMeanQueue) ||
		!bitsEqSlice(f.PerDimensionUtilization, r.PerDimensionUtilization) ||
		!bitsEqSlice(f.PerDimensionMeanWait, r.PerDimensionMeanWait) {
		t.Error("per-dimension statistics differ")
	}
	if sc.Faults != nil && ref.Metrics.DroppedFault+ref.Metrics.DroppedOverflow == 0 {
		t.Error("fault variant recorded no drops; the loss path was not exercised")
	}
}

// sharedHypercubeVariants are the configuration variants both hypercube
// golden tests run, under either arrival model: every router, the optional
// observability hooks, an unstable load, custom weights and the three fault
// variants (identity must hold for the loss accounting too).
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
	func(c *sim.Scenario) {
		c.Faults = &sim.FaultSpec{
			ArcFailProb:    0.01,
			BufferCapacity: 3,
			Outages: []sim.Outage{
				{From: 80, Until: 160, Fraction: 0.25},
				{From: 160, Until: 170, Arcs: []int{0, 1, 2, 5}},
				{From: 200.25, Until: 233.5, Fraction: 0.5},
			},
		}
	},
}

// runHypercubeVariants runs checkHypercubeIdentity on base modified by each
// variant, as subtests variant0, variant1, ...
func runHypercubeVariants(t *testing.T, base sim.Scenario, variants []func(*sim.Scenario)) {
	for i, mod := range variants {
		sc := base
		mod(&sc)
		t.Run(fmt.Sprintf("variant%d", i), func(t *testing.T) { checkHypercubeIdentity(t, sc) })
	}
}

// TestCrossKernelGoldenHypercubeSlotted pins the kernel contract on the §3.4
// slotted model: for every eligible configuration, the slot-stepped kernel
// and the event-driven calendar produce byte-identical metrics and
// byte-identical per-packet delays on the same seed.
func TestCrossKernelGoldenHypercubeSlotted(t *testing.T) {
	base := sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.7, Horizon: 400, Seed: 12345,
		Slotted: true, Tau: 0.5, TrackQuantiles: true, ReturnDelays: true,
	}
	variants := append([]func(*sim.Scenario){
		func(c *sim.Scenario) {},
		func(c *sim.Scenario) { c.Tau = 1.0 },
		func(c *sim.Scenario) { c.Tau = 0.25; c.Topology.D = 5; c.Seed = 99 },
	}, sharedHypercubeVariants...)
	runHypercubeVariants(t, base, variants)
}

// TestCrossKernelSlotScale pins the kernel contract at scale: the perfbench
// slot-scale point, a slotted 16-cube with 2^20 arcs, runs the slot kernel
// with its cache prefetches on, and must still match the event-driven
// calendar in every metric. The event-driven side takes about a second, so
// the test skips in -short mode and under the race detector.
func TestCrossKernelSlotScale(t *testing.T) {
	if testing.Short() || sim.RaceEnabled {
		t.Skip("skipping the 2^20-arc cross-kernel run in -short mode and under -race")
	}
	checkHypercubeIdentity(t, sim.Scenario{
		Topology: sim.Hypercube(16), P: 0.5, LoadFactor: 0.7, Horizon: 4, Seed: 1,
		Slotted: true, Tau: 1, SkipPerDimensionStats: true,
	})
}

// TestCrossKernelGoldenHypercubeContinuous is the same contract on the
// paper's headline model, continuous-time Poisson arrivals. Greedy routing at
// p = 1/2 runs the kernel's bulk arrival prefetch on its FillUint64 path;
// other p run it on the scalar fallback; randomized routers run without it.
func TestCrossKernelGoldenHypercubeContinuous(t *testing.T) {
	base := sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.7, Horizon: 400, Seed: 12345,
		TrackQuantiles: true, ReturnDelays: true,
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
// the golden contract.
func TestCrossKernelGoldenButterfly(t *testing.T) {
	scs := []sim.Scenario{
		{Topology: sim.Butterfly(4), P: 0.5, LoadFactor: 0.8, Horizon: 400, Seed: 7, TrackQuantiles: true, ReturnDelays: true},
		{Topology: sim.Butterfly(5), P: 0.3, LoadFactor: 0.6, Horizon: 300, Seed: 21, TrackQuantiles: true, ReturnDelays: true},
		{Topology: sim.Butterfly(3), P: 0.7, Lambda: 1.9, Horizon: 500, Seed: 3, PopulationTraceInterval: 20},
		{Topology: sim.Butterfly(4), P: 0.5, LoadFactor: 1.3, Horizon: 200, Seed: 5}, // unstable
		// Fault-model configs on the continuous-time (butterfly) path.
		{Topology: sim.Butterfly(4), P: 0.5, LoadFactor: 0.8, Horizon: 400, Seed: 11, TrackQuantiles: true, ReturnDelays: true,
			Faults: &sim.FaultSpec{ArcFailProb: 0.03}},
		{Topology: sim.Butterfly(3), P: 0.4, LoadFactor: 0.9, Horizon: 300, Seed: 13,
			Faults: &sim.FaultSpec{
				BufferCapacity: 2,
				Outages: []sim.Outage{
					{From: 60, Until: 120.5, Fraction: 0.3},
					{From: 150, Until: 151, Arcs: []int{3, 4}},
				},
			}},
	}
	for i, sc := range scs {
		t.Run(fmt.Sprintf("config%d", i), func(t *testing.T) {
			fast := run(t, sc)
			slow := sc
			slow.ForceEventDriven = true
			ref := run(t, slow)
			if fast.Kernel != sim.KernelSlotStepped || ref.Kernel != sim.KernelEventDriven {
				t.Fatalf("kernels: %s vs %s", fast.Kernel, ref.Kernel)
			}
			compareMetrics(t, "metrics", fast.Metrics, ref.Metrics)
			if !bitsEqSlice(fast.Delays, ref.Delays) {
				t.Errorf("per-packet delays differ (%d vs %d samples)", len(fast.Delays), len(ref.Delays))
			}
			if !bitsEq(fast.Butterfly.StraightUtilization, ref.Butterfly.StraightUtilization) ||
				!bitsEq(fast.Butterfly.VerticalUtilization, ref.Butterfly.VerticalUtilization) {
				t.Error("per-kind utilisations differ")
			}
			if sc.Faults != nil && ref.Metrics.DroppedFault+ref.Metrics.DroppedOverflow == 0 {
				t.Error("fault config recorded no drops; the loss path was not exercised")
			}
		})
	}
}

// TestCrossKernelRandomConfigs is the property-test half of the contract:
// pseudo-random eligible configurations must agree across kernels too.
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
		fast := run(t, sc)
		sc.ForceEventDriven = true
		ref := run(t, sc)
		compareMetrics(t, fmt.Sprintf("%s trial %d (%+v)", sc.Topology.Kind, trial, sc), fast.Metrics, ref.Metrics)
	}
}

// TestKernelSelection pins which configurations route to which kernel and
// that the escape hatch works. Every FIFO store-and-forward run is eligible
// under either arrival model; only the two blockers named at sim's
// storeForwardKernel (RandomOrder, ForceEventDriven) keep a run on the
// event-driven calendar.
func TestKernelSelection(t *testing.T) {
	hyper := func(mod func(*sim.Scenario)) sim.Scenario {
		sc := sim.Scenario{Topology: sim.Hypercube(3), P: 0.5, LoadFactor: 0.5, Horizon: 50, Seed: 1}
		mod(&sc)
		return sc
	}
	butter := func(mod func(*sim.Scenario)) sim.Scenario {
		sc := sim.Scenario{Topology: sim.Butterfly(3), P: 0.5, LoadFactor: 0.5, Horizon: 50, Seed: 1}
		mod(&sc)
		return sc
	}
	cases := []struct {
		name string
		sc   sim.Scenario
		want string
	}{
		{"poisson FIFO uses the slot kernel", hyper(func(c *sim.Scenario) {}), sim.KernelSlotStepped},
		{"poisson random-order falls back", hyper(func(c *sim.Scenario) { c.Discipline = sim.RandomOrder }), sim.KernelEventDriven},
		{"poisson valiant eligible", hyper(func(c *sim.Scenario) { c.Router = sim.ValiantTwoPhase }), sim.KernelSlotStepped},
		{"poisson ForceEventDriven wins", hyper(func(c *sim.Scenario) { c.ForceEventDriven = true }), sim.KernelEventDriven},
		{"slotted FIFO uses the slot kernel", hyper(func(c *sim.Scenario) { c.Slotted = true; c.Tau = 0.5 }), sim.KernelSlotStepped},
		{"slotted random-order falls back", hyper(func(c *sim.Scenario) {
			c.Slotted = true
			c.Tau = 0.5
			c.Discipline = sim.RandomOrder
		}), sim.KernelEventDriven},
		{"ForceEventDriven wins", hyper(func(c *sim.Scenario) {
			c.Slotted = true
			c.Tau = 0.5
			c.ForceEventDriven = true
		}), sim.KernelEventDriven},
		{"slotted valiant eligible", hyper(func(c *sim.Scenario) {
			c.Slotted = true
			c.Tau = 1
			c.Router = sim.ValiantTwoPhase
		}), sim.KernelSlotStepped},
		{"FIFO butterfly uses the slot kernel", butter(func(c *sim.Scenario) {}), sim.KernelSlotStepped},
		{"random-order butterfly falls back", butter(func(c *sim.Scenario) { c.Discipline = sim.RandomOrder }), sim.KernelEventDriven},
		{"butterfly ForceEventDriven wins", butter(func(c *sim.Scenario) { c.ForceEventDriven = true }), sim.KernelEventDriven},
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
