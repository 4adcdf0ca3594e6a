package slotsim

import (
	"testing"

	"repro/internal/xrand"
)

// chainTraffic routes every packet along a fixed chain of hops arcs starting
// at the origin's arc, wrapping modulo numArcs — enough structure to exercise
// queueing, handoffs and delivery.
type chainTraffic struct {
	numArcs int
	hops    int
}

func (c chainTraffic) AppendRoute(origin int32, rng *xrand.Rand, dst []int) []int {
	// Consume one payload draw like a real destination sampler would.
	start := int(rng.Uint64n(uint64(c.numArcs)))
	_ = origin
	for h := 0; h < c.hops; h++ {
		dst = append(dst, (start+h)%c.numArcs)
	}
	return dst
}

func slottedConfig() Config {
	return Config{
		NumArcs:   32,
		NumGroups: 4,
		GroupOf:   func(a int) int { return a % 4 },
		Sources:   16,
		MaxHops:   4,
		Horizon:   200,
		Warmup:    40,
		Seed:      42,
		Lambda:    0.4,
		Slotted:   true,
		Tau:       0.5,
		Traffic:   chainTraffic{numArcs: 32, hops: 4},
	}
}

func continuousConfig() Config {
	cfg := slottedConfig()
	cfg.Slotted = false
	cfg.Tau = 0
	return cfg
}

// continuousGreedyConfig is the paper's headline workload as sim runs it: a
// continuous-time Poisson 6-cube at load 0.7 under uniform traffic, stepped
// greedy routing, per-dimension statistics and bulk arrival prefetch.
func continuousGreedyConfig() Config {
	const d = 6
	sampler := &uniformBatch{mask: 1<<d - 1}
	return Config{
		NumArcs:   d << d,
		NumGroups: d,
		GroupOf:   func(a int) int { return a >> d }, // arc = dim*2^d + node
		Sources:   1 << d,
		Horizon:   200,
		Warmup:    40,
		Seed:      42,
		Lambda:    1.4,
		Mode:      RouteHypercubeGreedy,
		Dest:      sampler,
		Batch:     sampler,
	}
}

// TestContinuousPrefetchMatchesScalar pins the continuous-mode prefetch as a
// pure sampling optimisation: with and without Config.Batch the run is the
// same, and only the estimate grows, by exactly the prefetch block.
func TestContinuousPrefetchMatchesScalar(t *testing.T) {
	bulk := continuousGreedyConfig()
	scalar := bulk
	scalar.Batch = nil
	want := (&Kernel{}).Run(scalar)
	got := (&Kernel{}).Run(bulk)
	if got.Generated <= prefetchPairs {
		t.Fatalf("only %d packets: the run never refills the prefetch block", got.Generated)
	}
	if got.MeanDelay != want.MeanDelay || got.Generated != want.Generated ||
		got.Delivered != want.Delivered || got.MeanPopulation != want.MeanPopulation ||
		got.InFlight != want.InFlight || got.MaxDelay != want.MaxDelay {
		t.Fatalf("prefetched run diverges from the scalar run:\n%+v\nvs\n%+v", got, want)
	}
	if extra := EstimateBytes(bulk) - EstimateBytes(scalar); extra != prefetchPairs*pairBytes {
		t.Errorf("prefetch buffers priced at %d B, want %d", extra, prefetchPairs*pairBytes)
	}
}

// TestKernelBasicConservation checks the kernel's accounting on both drive
// modes: everything generated is either delivered or still in flight, and
// throughput/population are positive under load.
func TestKernelBasicConservation(t *testing.T) {
	for name, cfg := range map[string]Config{"slotted": slottedConfig(), "continuous": continuousConfig()} {
		k := &Kernel{}
		m := k.Run(cfg)
		if m.Generated == 0 || m.Delivered == 0 {
			t.Fatalf("%s: no traffic simulated: %+v", name, m)
		}
		if m.MeanDelay < 1 {
			t.Errorf("%s: mean delay %v below the unit service time", name, m.MeanDelay)
		}
		if m.MeanPopulation <= 0 || m.Throughput <= 0 {
			t.Errorf("%s: degenerate population/throughput: %+v", name, m)
		}
		if m.LittleLawError > 0.2 {
			t.Errorf("%s: Little's law error %v", name, m.LittleLawError)
		}
	}
}

// TestKernelReusedAcrossConfigs checks that one kernel instance can alternate
// between unrelated configurations (the pooled-usage pattern) and still
// reproduce the results a fresh kernel gives.
func TestKernelReusedAcrossConfigs(t *testing.T) {
	shared := &Kernel{}
	configs := []Config{slottedConfig(), continuousConfig()}
	// Vary sizes so every reset path (grow, shrink, re-stride) is exercised.
	big := slottedConfig()
	big.NumArcs = 64
	big.Sources = 64
	big.MaxHops = 6
	big.Traffic = chainTraffic{numArcs: 64, hops: 6}
	configs = append(configs, big, slottedConfig(), continuousConfig())
	for i, cfg := range configs {
		fresh := &Kernel{}
		want := fresh.Run(cfg)
		got := shared.Run(cfg)
		if got.MeanDelay != want.MeanDelay || got.Delivered != want.Delivered ||
			got.MeanPopulation != want.MeanPopulation || got.InFlight != want.InFlight {
			t.Fatalf("config %d: reused kernel diverges from fresh kernel:\n%+v\nvs\n%+v", i, got, want)
		}
	}
}

// TestKernelSteadyStateZeroAllocs is the allocation regression test for the
// tentpole contract: once the arena, rings and buffers are warm, a whole
// replication — per-replication setup included — must not allocate. Only the
// Metrics snapshot handed to the caller allocates (the caller owns its group
// slices and class map, so they cannot be pooled), and that cost is pinned to
// a small constant independent of horizon and traffic volume.
func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	for name, cfg := range map[string]Config{
		"slotted":                    slottedConfig(),
		"continuous":                 continuousConfig(),
		"continuous greedy prefetch": continuousGreedyConfig(),
	} {
		cfg := cfg
		k := &Kernel{}
		k.Run(cfg)
		k.Run(cfg)
		drive := testing.AllocsPerRun(5, func() {
			k.reset(cfg)
			if cfg.Slotted {
				k.runSlotted()
			} else {
				k.runContinuous()
			}
		})
		if drive != 0 {
			t.Errorf("%s: steady-state replication allocates %v, want 0", name, drive)
		}
		snap := testing.AllocsPerRun(5, func() { k.snapshot() })
		if snap > 6 {
			t.Errorf("%s: snapshot allocates %v, want a small constant (result slices only)", name, snap)
		}
	}
}

// BenchmarkSlottedKernelReplication measures one pooled slotted replication
// end to end (reset + run + snapshot).
func BenchmarkSlottedKernelReplication(b *testing.B) {
	cfg := slottedConfig()
	cfg.Horizon = 500
	k := &Kernel{}
	k.Run(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(cfg)
	}
}

// BenchmarkContinuousKernelReplication measures one pooled continuous-mode
// (butterfly-style) replication end to end.
func BenchmarkContinuousKernelReplication(b *testing.B) {
	cfg := continuousConfig()
	cfg.Horizon = 500
	k := &Kernel{}
	k.Run(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(cfg)
	}
}

// BenchmarkContinuousHypercubeReplication measures one pooled replication of
// the continuous-time greedy hypercube (bulk arrival prefetch included) and
// reports the kernel's cost per injected packet.
func BenchmarkContinuousHypercubeReplication(b *testing.B) {
	cfg := continuousGreedyConfig()
	cfg.Horizon = 500
	cfg.Warmup = 0 // Generated then counts every injected packet
	k := &Kernel{}
	packets := k.Run(cfg).Generated
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(cfg)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*packets), "ns/packet")
}
