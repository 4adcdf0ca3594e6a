package slotsim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/network"
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
		NumGroups: 4, // blocks of 8 arcs
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
		NumGroups: d, // arc = dim*2^d + node
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

// TestSlottedBlocksMatchScalar pins the block-wise sampling of slot batches
// as a pure sampling optimisation: batches that span several blocks give the
// run the scalar sampler gives.
func TestSlottedBlocksMatchScalar(t *testing.T) {
	const d = 8
	sampler := &uniformBatch{mask: 1<<d - 1}
	bulk := Config{
		NumArcs:   d << d,
		NumGroups: d,
		Sources:   1 << d,
		Horizon:   60,
		Warmup:    10,
		Seed:      8,
		Lambda:    1.4, // ~358 packets a tick
		Slotted:   true,
		Tau:       1,
		Mode:      RouteHypercubeGreedy,
		Dest:      sampler,
		Batch:     sampler,
	}
	scalar := bulk
	scalar.Batch = nil
	want := (&Kernel{}).Run(scalar)
	got := (&Kernel{}).Run(bulk)
	if got.MeanDelay != want.MeanDelay || got.Generated != want.Generated ||
		got.Delivered != want.Delivered || got.MeanPopulation != want.MeanPopulation ||
		got.InFlight != want.InFlight || got.MaxDelay != want.MaxDelay {
		t.Fatalf("block-sampled run diverges from the scalar run:\n%+v\nvs\n%+v", got, want)
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
// reproduce the results a fresh kernel gives. The sequence varies sizes, so
// every reset path (grow, shrink, re-stride) runs, and switches each optional
// array on, off and on again: the outage arrays (stalled heads and bitsets,
// here with a finite buffer's lengths too), the stored-route slots and slab,
// and the per-hop wait times. An array reset drops, keeps or reallocates
// wrongly then shows up as a diverging run.
func TestKernelReusedAcrossConfigs(t *testing.T) {
	big := slottedConfig()
	big.NumArcs = 64
	big.Sources = 64
	big.MaxHops = 6
	big.Traffic = chainTraffic{numArcs: 64, hops: 6}
	outages := slottedConfig()
	outages.Faults = network.Faults{
		BufferCapacity: 3,
		Outages: []network.Outage{
			{From: 50, Until: 80, Arcs: []int32{0, 1, 2, 3, 4, 5, 6, 7}},
			{From: 120, Until: 125, Arcs: []int32{9, 17}},
		},
	}
	waits := continuousGreedyConfig()
	waits.TrackPerHopWait = true
	configs := []Config{
		slottedConfig(), continuousConfig(), big, slottedConfig(), continuousConfig(),
		outages, slottedConfig(), outages, // outages on, off, on
		continuousGreedyConfig(), slottedConfig(), // stored routes off, on
		waits, continuousGreedyConfig(), waits, // per-hop waits on, off, on
	}
	shared := &Kernel{}
	for i, cfg := range configs {
		want := (&Kernel{}).Run(cfg)
		if got := shared.Run(cfg); !reflect.DeepEqual(got, want) {
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
// the continuous-time greedy hypercube (bulk arrival prefetch included) at
// loads 0.5, 0.7 and 0.9 and reports the kernel's cost per injected packet.
// The load sets how often a packet finds its arc idle, the outcome the
// queue join branches on. load-0.7 is
// continuousGreedyConfig's own λ = 1.4, the single point this benchmark ran
// before it was split, so its ns/packet series continues.
func BenchmarkContinuousHypercubeReplication(b *testing.B) {
	for _, rho := range []float64{0.5, 0.7, 0.9} {
		b.Run(fmt.Sprintf("load-%v", rho), func(b *testing.B) {
			cfg := continuousGreedyConfig()
			cfg.Lambda = 2 * rho // ρ = λ·p with p = 1/2
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
		})
	}
}

// flipDest sends every packet across dimension 0 only (a one-hop route), or
// across dimensions 0 and 1 when two is set.
type flipDest struct{ two bool }

func (f flipDest) SampleDest(origin int32, rng *xrand.Rand) uint32 {
	if f.two {
		return uint32(origin) ^ 3
	}
	return uint32(origin) ^ 1
}

// TestContinuousTieBreak pins the continuous-mode rule for a completion and
// an arrival due at the same instant: they fire in the order they were
// scheduled. A packet injected at t = 0 completes its last hop at t = hops,
// and the pending arrival is forced to that instant. Scheduled before that
// completion (mark 0), the arrival fires first, so both packets are in
// flight together; scheduled after it (mark = hops, the completions pushed
// by then), the first packet has left by then. With one hop the tie is the run's first
// event; with two it comes after the measurement start, where completions
// due strictly before the arrival drain without the merge.
func TestContinuousTieBreak(t *testing.T) {
	const d = 4
	for _, tc := range []struct {
		name       string
		hops       int
		markPushed bool
		wantMaxPop float64
	}{
		{"arrival scheduled first", 1, false, 2},
		{"completion scheduled first", 1, true, 1},
		{"arrival scheduled first mid-run", 2, false, 2},
		{"completion scheduled first mid-run", 2, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := &Kernel{}
			k.reset(Config{
				NumArcs:   d << d,
				NumGroups: d,
				Sources:   1 << d,
				Horizon:   10,
				Seed:      1,
				Lambda:    1e-300, // no drawn arrival falls inside the horizon
				Mode:      RouteHypercubeGreedy,
				Dest:      flipDest{two: tc.hops == 2},
			})
			if k.arrPending {
				t.Fatal("an arrival was drawn inside the horizon")
			}
			k.injectTo(0, uint32(1<<tc.hops-1), 0) // last hop due at t = hops
			k.arrTime, k.arrPending, k.arrMark = float64(tc.hops), true, 0
			if tc.markPushed {
				k.arrMark = uint64(tc.hops)
			}
			k.runContinuous()
			m := k.snapshot()
			if m.MaxPopulation != tc.wantMaxPop || m.Delivered != 2 {
				t.Fatalf("MaxPopulation %v, Delivered %d; want %v, 2",
					m.MaxPopulation, m.Delivered, tc.wantMaxPop)
			}
		})
	}
}
