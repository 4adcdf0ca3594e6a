// Package hypercube models the directed d-dimensional binary hypercube used
// by the paper: 2^d nodes numbered 0..2^d-1, with a unidirectional arc from x
// to x XOR e_m for every node x and every dimension m in 1..d. The package
// provides node/arc identities, Hamming distances, the dimensions a packet
// must cross and a dense arc indexing scheme used by the simulator to keep
// per-arc queues in a flat slice.
package hypercube

import (
	"fmt"
	"math/bits"
)

// Node identifies a hypercube node by the integer whose binary representation
// is the node's identity (z_d ... z_1).
type Node uint32

// Dimension identifies a hypercube dimension; the paper numbers dimensions
// 1..d, and so does this package (dimension m flips bit m-1 of the identity).
type Dimension int

// Arc is a directed hypercube arc From -> To where To = From XOR e_Dim.
type Arc struct {
	From Node
	To   Node
	Dim  Dimension
}

// MaxDimension is the largest supported cube dimension. 2^20 nodes times d
// arcs is already far beyond what the delay experiments need; the limit only
// guards the arc-indexing arithmetic.
const MaxDimension = 20

// Cube describes a d-dimensional hypercube.
type Cube struct {
	d int
	n int // 2^d
}

// New returns the d-dimensional hypercube. It panics if d is not in
// [1, MaxDimension].
func New(d int) *Cube {
	if d < 1 || d > MaxDimension {
		panic(fmt.Sprintf("hypercube: dimension %d out of range [1,%d]", d, MaxDimension))
	}
	return &Cube{d: d, n: 1 << uint(d)}
}

// Dimension returns d.
func (c *Cube) Dimension() int { return c.d }

// Nodes returns the number of nodes, 2^d.
func (c *Cube) Nodes() int { return c.n }

// NumArcs returns the number of directed arcs, d * 2^d.
func (c *Cube) NumArcs() int { return c.d * c.n }

// Contains reports whether x is a valid node of the cube.
func (c *Cube) Contains(x Node) bool { return int(x) < c.n }

// Unit returns e_m, the node whose identity has only bit m set
// (m is 1-based as in the paper). It panics for m outside [1, d].
func (c *Cube) Unit(m Dimension) Node {
	c.checkDim(m)
	return Node(1) << uint(m-1)
}

// Flip returns x XOR e_m.
func (c *Cube) Flip(x Node, m Dimension) Node {
	return x ^ c.Unit(m)
}

// Hamming returns the Hamming distance between nodes x and y.
func Hamming(x, y Node) int {
	return bits.OnesCount32(uint32(x ^ y))
}

// Arc returns the arc leaving x along dimension m.
func (c *Cube) Arc(x Node, m Dimension) Arc {
	return Arc{From: x, To: c.Flip(x, m), Dim: m}
}

// ArcIndex maps an arc to a dense index in [0, NumArcs()). Arcs are grouped
// by dimension: index = (dim-1)*2^d + from. The inverse is ArcAt.
func (c *Cube) ArcIndex(a Arc) int {
	c.checkDim(a.Dim)
	if !c.Contains(a.From) {
		panic(fmt.Sprintf("hypercube: node %d outside %d-cube", a.From, c.d))
	}
	return (int(a.Dim)-1)*c.n + int(a.From)
}

// ArcIndexFrom returns the dense index of the arc leaving x along dimension
// m. It is ArcIndex(Arc(x, m)) without the argument re-validation, for hot
// paths (per-hop route construction) whose inputs are already inside the
// cube by construction.
func (c *Cube) ArcIndexFrom(x Node, m Dimension) int {
	return (int(m)-1)*c.n + int(x)
}

// ArcAt returns the arc with the given dense index.
func (c *Cube) ArcAt(idx int) Arc {
	if idx < 0 || idx >= c.NumArcs() {
		panic(fmt.Sprintf("hypercube: arc index %d out of range", idx))
	}
	dim := Dimension(idx/c.n) + 1
	from := Node(idx % c.n)
	return c.Arc(from, dim)
}

// DimensionOfArcIndex returns the dimension an arc index belongs to.
func (c *Cube) DimensionOfArcIndex(idx int) Dimension {
	if idx < 0 || idx >= c.NumArcs() {
		panic(fmt.Sprintf("hypercube: arc index %d out of range", idx))
	}
	return Dimension(idx/c.n) + 1
}

// DiffDimensions returns, in increasing order, the dimensions in which x and
// z differ; these are exactly the dimensions a packet from x to z must cross.
func (c *Cube) DiffDimensions(x, z Node) []Dimension {
	diff := uint32(x ^ z)
	dims := make([]Dimension, 0, bits.OnesCount32(diff))
	for diff != 0 {
		m := bits.TrailingZeros32(diff) + 1
		dims = append(dims, Dimension(m))
		diff &= diff - 1
	}
	return dims
}

func (c *Cube) checkDim(m Dimension) {
	if m < 1 || int(m) > c.d {
		panic(fmt.Sprintf("hypercube: dimension %d out of range [1,%d]", m, c.d))
	}
}
