package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/network"
	"repro/internal/xrand"
	"repro/sim"
)

// floatEq compares floats bitwise (NaN equals NaN): cross-kernel identity is
// exact, not approximate.
func floatEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func floatsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !floatEq(a[i], b[i]) {
			return false
		}
	}
	return true
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
		if !floatEq(s.x, s.y) {
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
		if !floatsEq(v.x, v.y) {
			t.Errorf("%s: %s differs:\n%v\nvs\n%v", label, v.name, v.x, v.y)
		}
	}
	if len(a.MeanDelayByClass) != len(b.MeanDelayByClass) {
		t.Errorf("%s: class map sizes differ", label)
	}
	for cls, x := range a.MeanDelayByClass {
		if y, ok := b.MeanDelayByClass[cls]; !ok || !floatEq(x, y) {
			t.Errorf("%s: class %d delay differs: %v vs %v", label, cls, x, y)
		}
	}
}

// checkHypercubeIdentity runs cfg on the slot-stepped kernel and on the
// event-driven oracle and fails on any bit of difference in the metrics, the
// per-packet delays, the quantiles or the per-dimension statistics.
func checkHypercubeIdentity(t *testing.T, cfg HypercubeConfig) {
	t.Helper()
	fast, err := RunHypercube(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow := cfg
	slow.ForceEventDriven = true
	ref, err := RunHypercube(slow)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Kernel != KernelSlotStepped || ref.Kernel != KernelEventDriven {
		t.Fatalf("kernels: %s vs %s", fast.Kernel, ref.Kernel)
	}
	compareMetrics(t, "metrics", fast.Metrics, ref.Metrics)
	if !floatsEq(fast.Delays, ref.Delays) {
		t.Errorf("per-packet delays differ (%d vs %d samples)", len(fast.Delays), len(ref.Delays))
	}
	if !floatEq(fast.DelayP95, ref.DelayP95) || !floatEq(fast.DelayP99, ref.DelayP99) {
		t.Errorf("quantiles differ: %v/%v vs %v/%v", fast.DelayP95, fast.DelayP99, ref.DelayP95, ref.DelayP99)
	}
	if !floatsEq(fast.PerDimensionMeanQueue, ref.PerDimensionMeanQueue) ||
		!floatsEq(fast.PerDimensionUtilization, ref.PerDimensionUtilization) ||
		!floatsEq(fast.PerDimensionMeanWait, ref.PerDimensionMeanWait) {
		t.Error("per-dimension statistics differ")
	}
	if cfg.Faults != nil && ref.Metrics.DroppedFault+ref.Metrics.DroppedOverflow == 0 {
		t.Error("fault variant recorded no drops; the loss path was not exercised")
	}
}

// sharedHypercubeVariants are the configuration variants both hypercube
// golden tests run, under either arrival model: every router, the optional
// observability hooks, an unstable load, custom weights and the three fault
// variants (identity must hold for the loss accounting too).
var sharedHypercubeVariants = []func(*HypercubeConfig){
	func(c *HypercubeConfig) { c.Router = GreedyRandomOrder },
	func(c *HypercubeConfig) { c.Router = ValiantTwoPhase; c.LoadFactor = 0.3 },
	func(c *HypercubeConfig) { c.TrackPerDimensionWait = true },
	func(c *HypercubeConfig) { c.PopulationTraceInterval = 25 },
	func(c *HypercubeConfig) { c.LoadFactor = 1.2 }, // unstable: leftovers in flight
	func(c *HypercubeConfig) {
		c.LoadFactor = 0
		c.Lambda = 1.0
		c.CustomWeights = []float64{0, 1, 1, 0.5, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 3}
	},
	// Fault-model variants: transient faults alone, finite buffers alone,
	// and the full model with scheduled outages.
	func(c *HypercubeConfig) { c.Faults = &sim.FaultSpec{ArcFailProb: 0.02} },
	func(c *HypercubeConfig) { c.Faults = &sim.FaultSpec{BufferCapacity: 1}; c.LoadFactor = 0.9 },
	func(c *HypercubeConfig) {
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
func runHypercubeVariants(t *testing.T, base HypercubeConfig, variants []func(*HypercubeConfig)) {
	for i, mod := range variants {
		cfg := base
		mod(&cfg)
		t.Run(fmt.Sprintf("variant%d", i), func(t *testing.T) { checkHypercubeIdentity(t, cfg) })
	}
}

// TestCrossKernelGoldenHypercubeSlotted pins the kernel contract on the §3.4
// slotted model: for every eligible configuration, the slot-stepped kernel
// and the event-driven calendar produce byte-identical metrics and
// byte-identical per-packet delays on the same seed.
func TestCrossKernelGoldenHypercubeSlotted(t *testing.T) {
	base := HypercubeConfig{
		D: 4, P: 0.5, LoadFactor: 0.7, Horizon: 400, Seed: 12345,
		Slotted: true, Tau: 0.5, TrackQuantiles: true, ReturnDelays: true,
	}
	variants := append([]func(*HypercubeConfig){
		func(c *HypercubeConfig) {},
		func(c *HypercubeConfig) { c.Tau = 1.0 },
		func(c *HypercubeConfig) { c.Tau = 0.25; c.D = 5; c.Seed = 99 },
	}, sharedHypercubeVariants...)
	runHypercubeVariants(t, base, variants)
}

// TestCrossKernelGoldenHypercubeContinuous is the same contract on the
// paper's headline model, continuous-time Poisson arrivals. Greedy routing at
// p = 1/2 runs the kernel's bulk arrival prefetch on its FillUint64 path;
// other p run it on the scalar fallback; randomized routers run without it.
func TestCrossKernelGoldenHypercubeContinuous(t *testing.T) {
	base := HypercubeConfig{
		D: 4, P: 0.5, LoadFactor: 0.7, Horizon: 400, Seed: 12345,
		TrackQuantiles: true, ReturnDelays: true,
	}
	variants := append([]func(*HypercubeConfig){
		func(c *HypercubeConfig) {},
		func(c *HypercubeConfig) { c.P = 0.3; c.D = 5; c.Seed = 99 },
		func(c *HypercubeConfig) { c.D = 10; c.LoadFactor = 0.8; c.Horizon = 40; c.Seed = 7 },
		func(c *HypercubeConfig) { c.D = 10; c.P = 0.3; c.LoadFactor = 0.8; c.Horizon = 40; c.Seed = 8 },
	}, sharedHypercubeVariants...)
	runHypercubeVariants(t, base, variants)
}

// TestCrossKernelGoldenButterfly is the butterfly (continuous-time) half of
// the golden contract.
func TestCrossKernelGoldenButterfly(t *testing.T) {
	cfgs := []ButterflyConfig{
		{D: 4, P: 0.5, LoadFactor: 0.8, Horizon: 400, Seed: 7, TrackQuantiles: true, ReturnDelays: true},
		{D: 5, P: 0.3, LoadFactor: 0.6, Horizon: 300, Seed: 21, TrackQuantiles: true, ReturnDelays: true},
		{D: 3, P: 0.7, Lambda: 1.9, Horizon: 500, Seed: 3, PopulationTraceInterval: 20},
		{D: 4, P: 0.5, LoadFactor: 1.3, Horizon: 200, Seed: 5}, // unstable
		// Fault-model configs on the continuous-time (butterfly) path.
		{D: 4, P: 0.5, LoadFactor: 0.8, Horizon: 400, Seed: 11, TrackQuantiles: true, ReturnDelays: true,
			Faults: &sim.FaultSpec{ArcFailProb: 0.03}},
		{D: 3, P: 0.4, LoadFactor: 0.9, Horizon: 300, Seed: 13,
			Faults: &sim.FaultSpec{
				BufferCapacity: 2,
				Outages: []sim.Outage{
					{From: 60, Until: 120.5, Fraction: 0.3},
					{From: 150, Until: 151, Arcs: []int{3, 4}},
				},
			}},
	}
	for i, cfg := range cfgs {
		t.Run(fmt.Sprintf("config%d", i), func(t *testing.T) {
			fast, err := RunButterfly(cfg)
			if err != nil {
				t.Fatal(err)
			}
			slow := cfg
			slow.ForceEventDriven = true
			ref, err := RunButterfly(slow)
			if err != nil {
				t.Fatal(err)
			}
			if fast.Kernel != KernelSlotStepped || ref.Kernel != KernelEventDriven {
				t.Fatalf("kernels: %s vs %s", fast.Kernel, ref.Kernel)
			}
			compareMetrics(t, "metrics", fast.Metrics, ref.Metrics)
			if !floatsEq(fast.Delays, ref.Delays) {
				t.Errorf("per-packet delays differ (%d vs %d samples)", len(fast.Delays), len(ref.Delays))
			}
			if !floatEq(fast.StraightUtilization, ref.StraightUtilization) ||
				!floatEq(fast.VerticalUtilization, ref.VerticalUtilization) {
				t.Error("per-kind utilisations differ")
			}
			if cfg.Faults != nil && ref.Metrics.DroppedFault+ref.Metrics.DroppedOverflow == 0 {
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
		if trial%2 == 0 {
			// Hypercube trials h = 0..7 alternate slotted and continuous
			// arrivals, use p = 1/2 (the bulk sampler's FillUint64 path) in
			// half of them, and cycle the router every two trials, so each
			// arrival model meets greedy routing at both kinds of p.
			h := trial / 2
			cfg := HypercubeConfig{
				D:          2 + rng.Intn(4),
				P:          0.2 + 0.6*rng.Float64(),
				LoadFactor: 0.2 + 0.7*rng.Float64(),
				Horizon:    100 + 50*float64(rng.Intn(4)),
				Seed:       seed,
				Slotted:    h%2 == 0,
				Router:     RouterKind(h / 2 % 3),
			}
			if cfg.Slotted {
				cfg.Tau = taus[rng.Intn(len(taus))]
			}
			if h%4 < 2 {
				cfg.P = 0.5
			}
			fast, err := RunHypercube(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.ForceEventDriven = true
			ref, err := RunHypercube(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareMetrics(t, fmt.Sprintf("hypercube trial %d (%+v)", trial, cfg), fast.Metrics, ref.Metrics)
		} else {
			cfg := ButterflyConfig{
				D:          2 + rng.Intn(4),
				P:          0.2 + 0.6*rng.Float64(),
				LoadFactor: 0.2 + 0.7*rng.Float64(),
				Horizon:    100 + 50*float64(rng.Intn(4)),
				Seed:       seed,
			}
			fast, err := RunButterfly(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.ForceEventDriven = true
			ref, err := RunButterfly(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareMetrics(t, fmt.Sprintf("butterfly trial %d (%+v)", trial, cfg), fast.Metrics, ref.Metrics)
		}
	}
}

// TestKernelSelection pins which configurations route to which kernel and
// that both escape hatches work. Every FIFO store-and-forward run is
// eligible under either arrival model; only the three blockers named at
// sim's slotKernelEligible (RandomOrder, ForceEventDriven,
// DisableFastKernel) keep a run on the event-driven calendar.
func TestKernelSelection(t *testing.T) {
	hyper := func(mod func(*HypercubeConfig)) HypercubeConfig {
		cfg := HypercubeConfig{D: 3, P: 0.5, LoadFactor: 0.5, Horizon: 50, Seed: 1}
		mod(&cfg)
		return cfg
	}
	hyperCases := []struct {
		name string
		cfg  HypercubeConfig
		want string
	}{
		{"poisson FIFO uses the slot kernel", hyper(func(c *HypercubeConfig) {}), KernelSlotStepped},
		{"poisson random-order falls back", hyper(func(c *HypercubeConfig) { c.Discipline = network.RandomOrder }), KernelEventDriven},
		{"poisson valiant eligible", hyper(func(c *HypercubeConfig) { c.Router = ValiantTwoPhase }), KernelSlotStepped},
		{"poisson ForceEventDriven wins", hyper(func(c *HypercubeConfig) { c.ForceEventDriven = true }), KernelEventDriven},
		{"slotted FIFO uses the slot kernel", hyper(func(c *HypercubeConfig) { c.Slotted = true; c.Tau = 0.5 }), KernelSlotStepped},
		{"slotted random-order falls back", hyper(func(c *HypercubeConfig) {
			c.Slotted = true
			c.Tau = 0.5
			c.Discipline = network.RandomOrder
		}), KernelEventDriven},
		{"ForceEventDriven wins", hyper(func(c *HypercubeConfig) {
			c.Slotted = true
			c.Tau = 0.5
			c.ForceEventDriven = true
		}), KernelEventDriven},
		{"slotted valiant eligible", hyper(func(c *HypercubeConfig) {
			c.Slotted = true
			c.Tau = 1
			c.Router = ValiantTwoPhase
		}), KernelSlotStepped},
	}
	for _, tc := range hyperCases {
		res, err := RunHypercube(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Kernel != tc.want {
			t.Errorf("%s: kernel = %s, want %s", tc.name, res.Kernel, tc.want)
		}
	}

	butter := func(mod func(*ButterflyConfig)) ButterflyConfig {
		cfg := ButterflyConfig{D: 3, P: 0.5, LoadFactor: 0.5, Horizon: 50, Seed: 1}
		mod(&cfg)
		return cfg
	}
	butterCases := []struct {
		name string
		cfg  ButterflyConfig
		want string
	}{
		{"FIFO butterfly uses the slot kernel", butter(func(c *ButterflyConfig) {}), KernelSlotStepped},
		{"random-order butterfly falls back", butter(func(c *ButterflyConfig) { c.Discipline = network.RandomOrder }), KernelEventDriven},
		{"ForceEventDriven wins", butter(func(c *ButterflyConfig) { c.ForceEventDriven = true }), KernelEventDriven},
	}
	for _, tc := range butterCases {
		res, err := RunButterfly(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Kernel != tc.want {
			t.Errorf("%s: kernel = %s, want %s", tc.name, res.Kernel, tc.want)
		}
	}

	// The global test/benchmark escape hatch.
	sim.DisableFastKernel = true
	defer func() { sim.DisableFastKernel = false }()
	res, err := RunButterfly(butter(func(c *ButterflyConfig) {}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != KernelEventDriven {
		t.Errorf("DisableFastKernel ignored: kernel = %s", res.Kernel)
	}
}
