package oracle

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestFIFOOrderPreserved(t *testing.T) {
	// Packets injected into the same arc back to back depart in order, one
	// per time unit.
	routes := make([][]int, 50)
	for i := range routes {
		routes[i] = []int{0}
	}
	got := Batch(1, routes)
	if len(got) != 50 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, d := range got {
		if d.Packet != i || d.Time != float64(i+1) {
			t.Fatalf("delivery %d is %+v, want packet %d at %d", i, d, i, i+1)
		}
	}
}

func TestZeroHopPacketDeliveredImmediately(t *testing.T) {
	got := Batch(1, [][]int{{0}, nil})
	if len(got) != 2 || got[0] != (Delivery{1, 0}) || got[1] != (Delivery{0, 1}) {
		t.Fatalf("deliveries %v, want the zero-hop packet at 0 first", got)
	}
}

func TestDeterministicBackToBackService(t *testing.T) {
	// Three packets cross arc 0 then arc 1: they leave arc 0 at 1, 2 and 3
	// and never wait at arc 1, so they arrive at 2, 3 and 4.
	got := Batch(2, [][]int{{0, 1}, {0, 1}, {0, 1}})
	want := []Delivery{{0, 2}, {1, 3}, {2, 4}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
}

// TestMD1MeanDelayOverReplications pins the oracle to the paper's model
// rather than to the slot kernel. In a greedy d = 1 hypercube with p = 1
// every packet crosses the one arc out of its origin, whose arrivals are
// Poisson(λ) with λ = ρ, so the arc is an M/D/1 queue with mean sojourn
// T = 1 + ρ/(2(1−ρ)); slotted arrivals at τ = 1 (a Poisson(λ) batch per
// slot) give the same mean. Each case runs 20 independent replications and
// requires the mean of their mean delays within 4 standard errors of T. With
// normal replication means a case fails by chance with probability 6.3e-5,
// so the six cases together with probability below 4e-4; the fixed seeds
// make the outcome deterministic.
func TestMD1MeanDelayOverReplications(t *testing.T) {
	const reps, horizon, z = 20, 10000, 4.0
	for _, slotted := range []bool{false, true} {
		for _, rho := range []float64{0.3, 0.6, 0.9} {
			var means stats.Tally
			for rep := range reps {
				res := Run(Config{
					NumArcs: 2, Sources: 2, Lambda: rho, Slotted: slotted, Tau: 1,
					Horizon: horizon, Warmup: 0.2 * horizon, Seed: uint64(1000*rep + 7),
					Route: func(origin int, _ *xrand.Rand) []int { return []int{origin} },
				})
				var d stats.Tally
				for _, x := range res.Delays {
					d.Add(x)
				}
				means.Add(d.Mean())
			}
			want := 1 + rho/(2*(1-rho))
			if diff := means.Mean() - want; math.Abs(diff) > z*means.StdError() {
				t.Errorf("slotted=%v rho=%v: mean delay %.4f ± %.4f (1 SE) over %d replications, M/D/1 gives %.4f",
					slotted, rho, means.Mean(), means.StdError(), reps, want)
			}
		}
	}
}

func TestConfigPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"no arcs", Config{}},
		{"arrivals without sources", Config{NumArcs: 1, Lambda: 1, Route: func(int, *xrand.Rand) []int { return nil }}},
		{"arrivals without routes", Config{NumArcs: 1, Lambda: 1, Sources: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			Run(c.cfg)
		}()
	}
}
