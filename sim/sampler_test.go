package sim

import (
	"testing"

	"repro/internal/xrand"
)

// TestSamplersMatchScalarDraws pins every topology's block sampler to the
// scalar pair sequence: for each pair a uniform origin drawn with Uint64n,
// then the destination drawn by internal/workload's scalar sampler, one pair
// at a time. Blocks of 1, 7 and 256 pairs, over consecutive calls, must
// reproduce that sequence and leave the stream where the scalar draws leave
// it. The cases cover the uniform FillUint64 path and the scalar fallback
// (p ≠ 1/2, and custom weights on the hypercube) of both samplers.
func TestSamplersMatchScalarDraws(t *testing.T) {
	weights := []float64{0, 1, 1, 0.5, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 3}
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"hypercube-uniform", Scenario{Topology: Hypercube(6), P: 0.5}},
		{"hypercube-bitflip", Scenario{Topology: Hypercube(6), P: 0.3}},
		{"hypercube-weights", Scenario{Topology: Hypercube(4), Lambda: 1, CustomWeights: weights}},
		{"butterfly-uniform", Scenario{Topology: Butterfly(5), P: 0.5}},
		{"butterfly-bitflip", Scenario{Topology: Butterfly(5), P: 0.7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			sc.Horizon, sc.Seed = 10, 3
			if sc.Lambda == 0 {
				sc.LoadFactor = 0.5
			}
			n, err := sc.normalize()
			if err != nil {
				t.Fatal(err)
			}
			c := n.sf
			s := new(runner).sampler(c)
			s.prepare(c)
			dest := scalarDest(c)
			for _, block := range []int{1, 7, 256} {
				bulk, ref := xrand.NewStream(17, 5), xrand.NewStream(17, 5)
				origins, dests := make([]uint32, block), make([]uint32, block)
				for call := range 3 {
					s.SampleDestBatch(bulk, origins, dests)
					for i := range origins {
						o := uint32(ref.Uint64n(uint64(c.net.sources)))
						d := dest(int(o), ref)
						if origins[i] != o || dests[i] != d {
							t.Fatalf("block %d, call %d, pair %d: sampled (%d, %d), scalar draws give (%d, %d)",
								block, call, i, origins[i], dests[i], o, d)
						}
					}
				}
				if bulk.Uint64() != ref.Uint64() {
					t.Fatalf("block %d: the sampler left the stream elsewhere than the scalar draws", block)
				}
			}
		})
	}
}
