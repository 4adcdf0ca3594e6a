package network

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// TestGroupPopulationMatchesTimeWeighted pins the collector's inlined
// per-group population accumulator to stats.TimeWeighted bit for bit: on
// seeded random (time, ±1) sequences with repeated same-instant updates and a
// measurement start part-way through, GroupMeanPopulation must equal what
// TimeWeighted.Add, Reset and MeanAt compute from the same sequence. The
// last case starts measuring at the snapshot instant, where MeanAt returns
// the current value.
func TestGroupPopulationMatchesTimeWeighted(t *testing.T) {
	const groups = 3
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		steps := 50 + int(rng.Uint64n(400))
		measureAt := int(rng.Uint64n(uint64(steps)))
		if seed == 20 {
			measureAt = steps
		}
		var c Collector
		c.Reset(groups, Measurement{})
		want := make([]stats.TimeWeighted, groups)
		cur := make([]float64, groups) // each group's current population
		for g := range want {
			want[g].Reset(0, 0)
		}
		now := 0.0
		for i := 0; i < steps; i++ {
			// A third of the updates repeat the previous instant.
			now += float64(rng.Uint64n(3)) * 0.1 * rng.Float64()
			if i == measureAt {
				c.StartMeasurement(now)
				for g := range want {
					want[g].Reset(now, cur[g])
				}
			}
			g := int32(rng.Uint64n(groups))
			delta := 1.0
			if rng.Uint64()&1 == 0 {
				delta = -1
			}
			c.GroupPopulationAdd(g, now, delta)
			cur[g] += delta
			want[g].Set(now, cur[g])
		}
		if measureAt == steps {
			c.StartMeasurement(now)
			for g := range want {
				want[g].Reset(now, cur[g])
			}
		}
		end := now
		if measureAt < steps {
			end += rng.Float64()
		}
		m := c.Snapshot(end, make([]int, groups), make([]float64, groups), make([]float64, groups))
		for g := range want {
			if got, w := m.GroupMeanPopulation[g], want[g].MeanAt(end); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("seed %d group %d: GroupMeanPopulation %v, TimeWeighted %v", seed, g, got, w)
			}
		}
	}
}
