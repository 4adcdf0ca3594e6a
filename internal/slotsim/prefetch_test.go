package slotsim

import (
	"reflect"
	"testing"

	"repro/internal/network"
)

// greedyPrefetchConfig is a slotted greedy d-cube config, above the prefetch
// gate for d >= 14.
func greedyPrefetchConfig(d int) Config {
	return Config{
		NumArcs: d << d, NumGroups: d, Sources: 1 << d,
		Horizon: 6, Warmup: 2, Seed: 5, Lambda: 0.6, Slotted: true, Tau: 1,
		Mode: RouteHypercubeGreedy, Batch: &uniformBatch{mask: 1<<d - 1},
	}
}

// TestPrefetchLeavesRunsUnchanged pins the cache prefetches as hints only: a
// greedy slotted run above the gate, with and without faults, gives the same
// Metrics with them on as with them cleared after reset. The runs deliver
// packets, so the next-arc stages meet packets on their last hop and skip
// them.
func TestPrefetchLeavesRunsUnchanged(t *testing.T) {
	faulty := greedyPrefetchConfig(15)
	faulty.Faults = network.Faults{ArcFailProb: 0.05}
	for name, cfg := range map[string]Config{"greedy": greedyPrefetchConfig(15), "greedy-faults": faulty} {
		t.Run(name, func(t *testing.T) {
			var runs [2]network.Metrics
			for i, on := range []bool{true, false} {
				k := &Kernel{}
				k.reset(cfg)
				if !k.prefetch {
					t.Fatalf("%d arcs: prefetching is off above the gate", cfg.NumArcs)
				}
				k.prefetch = on
				k.runSlotted()
				runs[i] = k.snapshot()
			}
			if runs[0].Delivered == 0 {
				t.Fatal("no packet was delivered")
			}
			if cfg.ArcFailProb > 0 && runs[0].DroppedFault == 0 {
				t.Fatal("no packet was dropped; the fault path was not exercised")
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("prefetching changed the run:\non:  %+v\noff: %+v", runs[0], runs[1])
			}
		})
	}
}

// TestPrefetchGate pins the gate: greedy hypercube runs of at least
// prefetchMinArcs arcs only. Butterfly and stored-route runs stay unprefetched
// at any size.
func TestPrefetchGate(t *testing.T) {
	const bfD = 14
	butterfly := Config{
		NumArcs: bfD * 2 << bfD, NumGroups: 2 * bfD, Sources: 1 << bfD,
		Horizon: 24, Slotted: true, Tau: 1,
		Mode: RouteButterfly, Batch: uniformDest{mask: 1<<bfD - 1},
	}
	stored := slottedConfig()
	stored.NumArcs, stored.NumGroups = prefetchMinArcs, 1
	routeChain(&stored, chainTraffic{sources: stored.Sources, numArcs: prefetchMinArcs, hops: 4})
	below, at := greedyPrefetchConfig(14), greedyPrefetchConfig(14)
	below.NumArcs, below.NumGroups = prefetchMinArcs-1, 1
	at.NumArcs, at.NumGroups = prefetchMinArcs, 1
	for _, tc := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"greedy-at-gate", at, true},
		{"greedy-below-gate", below, false},
		{"greedy-d15", greedyPrefetchConfig(15), true},
		{"butterfly-d14", butterfly, false},
		{"stored", stored, false},
	} {
		k := &Kernel{}
		k.reset(tc.cfg)
		if k.prefetch != tc.want {
			t.Errorf("%s (%d arcs): prefetch = %v, want %v", tc.name, tc.cfg.NumArcs, k.prefetch, tc.want)
		}
	}
}
