package slotsim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/xrand"
)

// chainTraffic routes every packet along a fixed chain of hops arcs starting
// at a uniformly drawn arc, wrapping modulo numArcs — enough structure to
// exercise queueing, handoffs and delivery. A packet's pair is its origin,
// uniform over sources, and the chain's first arc in place of a destination.
type chainTraffic struct {
	sources int
	numArcs int
	hops    int
}

func (c chainTraffic) SampleDestBatch(rng *xrand.Rand, origins, dests []uint32) {
	for i := range origins {
		origins[i] = uint32(rng.Uint64n(uint64(c.sources)))
		dests[i] = uint32(rng.Uint64n(uint64(c.numArcs)))
	}
}

func (c chainTraffic) AppendRoute(_, start uint32, dst []int) []int {
	for h := 0; h < c.hops; h++ {
		dst = append(dst, (int(start)+h)%c.numArcs)
	}
	return dst
}

// routeChain makes cfg route its packets along c's chains.
func routeChain(cfg *Config, c chainTraffic) {
	cfg.Traffic, cfg.Batch = c, c
}

func slottedConfig() Config {
	cfg := Config{
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
	}
	routeChain(&cfg, chainTraffic{sources: 16, numArcs: 32, hops: 4})
	return cfg
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
	return Config{
		NumArcs:   d << d,
		NumGroups: d, // arc = dim*2^d + node
		Sources:   1 << d,
		Horizon:   200,
		Warmup:    40,
		Seed:      42,
		Lambda:    1.4,
		Mode:      RouteHypercubeGreedy,
		Batch:     &uniformBatch{mask: 1<<d - 1},
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

// TestKernelPacketConservation checks the collector's accounting on every
// drive mode, with and without transient faults and finite buffers: without
// a warm-up every generated packet is delivered, dropped or still in flight
// at the horizon, exactly; with one, the window's delivered and dropped
// packets are among the packets it generated, and those are all accounted
// for once the packets still in flight (some generated before the window)
// are added. The window is [w, T] in every drive mode, so the slot batch
// injected at the warm-up instant (time 0 here) counts in Generated as its
// packets count in the fates.
func TestKernelPacketConservation(t *testing.T) {
	modes := map[string]func() Config{
		"slotted": slottedConfig, "continuous": continuousConfig, "greedy": continuousGreedyConfig,
	}
	faults := map[string]network.Faults{
		"faultless": {}, "lossy": {ArcFailProb: 0.05}, "buffered": {BufferCapacity: 1},
		"both": {ArcFailProb: 0.05, BufferCapacity: 1},
	}
	for mode, base := range modes {
		for fname, f := range faults {
			for _, warmup := range []float64{0, 40} {
				cfg := base()
				cfg.Lambda *= 2 // enough load to fill unit buffers
				cfg.Faults = f
				cfg.Warmup = warmup
				m := new(Kernel).Run(cfg)
				if (f.ArcFailProb > 0) != (m.DroppedFault > 0) || (f.BufferCapacity > 0) != (m.DroppedOverflow > 0) {
					t.Fatalf("%s/%s: drops %d fault, %d overflow", mode, fname, m.DroppedFault, m.DroppedOverflow)
				}
				decided := m.Delivered + m.DroppedFault + m.DroppedOverflow
				if warmup > 0 {
					if decided > m.Generated || m.Generated > decided+m.InFlight {
						t.Errorf("%s/%s, warm-up %v: generated %d outside [%d, %d]",
							mode, fname, warmup, m.Generated, decided, decided+m.InFlight)
					}
					continue
				}
				if m.Generated != decided+m.InFlight {
					t.Errorf("%s/%s: generated %d != delivered %d + dropped %d + %d + in flight %d",
						mode, fname, m.Generated, m.Delivered, m.DroppedFault, m.DroppedOverflow, m.InFlight)
				}
			}
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
	routeChain(&big, chainTraffic{sources: 64, numArcs: 64, hops: 6})
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

// flipDest sends every packet from a uniform origin among sources across
// dimension 0 only (a one-hop route), or across dimensions 0 and 1 when two
// is set.
type flipDest struct {
	sources int
	two     bool
}

func (f flipDest) SampleDestBatch(rng *xrand.Rand, origins, dests []uint32) {
	flip := uint32(1)
	if f.two {
		flip = 3
	}
	for i := range origins {
		origins[i] = uint32(rng.Uint64n(uint64(f.sources)))
		dests[i] = origins[i] ^ flip
	}
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
				Batch:     flipDest{sources: 1 << d, two: tc.hops == 2},
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
