// Package routing contains the path-selection schemes compared in the paper:
//
//   - DimensionOrder: the greedy scheme analysed in §3 — every packet crosses
//     the hypercube dimensions it needs in increasing index order (canonical
//     paths), with FIFO queueing at the arcs and no idling.
//   - RandomDimensionOrder: an oblivious variant that crosses the required
//     dimensions in a uniformly random order; used as an ablation of the
//     "increasing index order" design choice.
//   - ValiantTwoPhase: Valiant–Brebner randomized routing (§1.2, [VaB81]):
//     phase 1 sends the packet greedily to a uniformly random intermediate
//     node, phase 2 greedily from there to the true destination.
//   - ButterflyRouter: the unique butterfly path of §4.1 expressed as arc
//     indices.
package routing

import (
	"math/bits"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
	"repro/internal/xrand"
)

// HypercubeRouter converts an origin/destination pair into a path, expressed
// as the dense arc indices understood by the network simulator.
type HypercubeRouter interface {
	// AppendPath appends the arc-index path from origin to dest to dst and
	// returns the extended slice. Randomized routers draw from rng;
	// deterministic routers ignore it. Sources that recycle packets call
	// this with the packet's truncated Path so steady-state routing does
	// not allocate.
	AppendPath(dst []int, c *hypercube.Cube, origin, dest hypercube.Node, rng *xrand.Rand) []int
}

// Path returns the arc-index path from origin to dest in a fresh slice; it is
// the convenience form of r.AppendPath for cold paths.
func Path(r HypercubeRouter, c *hypercube.Cube, origin, dest hypercube.Node, rng *xrand.Rand) []int {
	return r.AppendPath(nil, c, origin, dest, rng)
}

// DimensionOrder is the paper's greedy scheme: canonical increasing
// dimension-order paths.
type DimensionOrder struct{}

// AppendPath appends the canonical path as arc indices, walking the
// differing dimensions in increasing order without materialising arcs.
func (DimensionOrder) AppendPath(dst []int, c *hypercube.Cube, origin, dest hypercube.Node, _ *xrand.Rand) []int {
	diff := uint32(origin ^ dest)
	cur := origin
	for diff != 0 {
		bit := diff & -diff
		m := hypercube.Dimension(bits.TrailingZeros32(diff) + 1)
		dst = append(dst, c.ArcIndexFrom(cur, m))
		cur ^= hypercube.Node(bit)
		diff &= diff - 1
	}
	return dst
}

// RandomDimensionOrder crosses the required dimensions in a uniformly random
// order; like DimensionOrder it is oblivious and uses shortest paths, but the
// levelled-network structure of §3.1 no longer holds. It is the ablation for
// the "increasing index order" choice.
type RandomDimensionOrder struct{}

// AppendPath appends a shortest path crossing the required dimensions in
// random order.
func (RandomDimensionOrder) AppendPath(dst []int, c *hypercube.Cube, origin, dest hypercube.Node, rng *xrand.Rand) []int {
	dims := c.DiffDimensions(origin, dest)
	if len(dims) > 1 {
		rng.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
	}
	cur := origin
	for _, m := range dims {
		dst = append(dst, c.ArcIndexFrom(cur, m))
		cur = c.Flip(cur, m)
	}
	return dst
}

// ValiantTwoPhase sends every packet greedily to a uniformly random
// intermediate node and then greedily to its destination. Both phases use
// canonical dimension-order paths, as in [VaB81]. The scheme doubles the
// expected traffic per arc, so on the dynamic problem it is stable only for
// roughly half the load of plain greedy routing; the concluding remarks of
// the paper discuss exactly this trade-off.
type ValiantTwoPhase struct{}

// AppendPath appends the concatenation of the two greedy phases.
func (v ValiantTwoPhase) AppendPath(dst []int, c *hypercube.Cube, origin, dest hypercube.Node, rng *xrand.Rand) []int {
	inter := hypercube.Node(rng.Intn(c.Nodes()))
	dst = DimensionOrder{}.AppendPath(dst, c, origin, inter, nil)
	return DimensionOrder{}.AppendPath(dst, c, inter, dest, nil)
}

// AppendButterflyPath appends the unique butterfly path from origin row to
// destination row as dense arc indices.
func AppendButterflyPath(dst []int, b *butterfly.Butterfly, origin, dest butterfly.Row) []int {
	cur := origin
	for j := 1; j <= b.Dimension(); j++ {
		bit := butterfly.Row(1) << uint(j-1)
		kind := butterfly.Straight
		if (cur^dest)&bit != 0 {
			kind = butterfly.Vertical
		}
		dst = append(dst, b.ArcIndex(butterfly.Arc{Row: cur, Level: butterfly.Level(j), Kind: kind}))
		if kind == butterfly.Vertical {
			cur ^= bit
		}
	}
	return dst
}
