// Package butterfly models the d-dimensional butterfly network of the paper
// (§4.1): (d+1)·2^d nodes arranged in d+1 levels of 2^d rows each. Node
// [x; j] of level j (1 <= j <= d) has two outgoing arcs, the straight arc
// (x; j; s) to [x; j+1] and the vertical arc (x; j; v) to [x XOR e_j; j+1].
// Packets enter at level 1 and leave at level d+1; the path between an
// origin row and a destination row is unique and crosses exactly one arc per
// level, vertical precisely at the levels where the two rows differ.
package butterfly

import (
	"fmt"
	"math/bits"
)

// Row identifies a row of the butterfly (the x part of a node identity).
type Row uint32

// Level identifies a butterfly level, 1..d+1.
type Level int

// ArcKind distinguishes the two arc types of the butterfly.
type ArcKind int

const (
	// Straight is the arc [x; j] -> [x; j+1].
	Straight ArcKind = iota
	// Vertical is the arc [x; j] -> [x XOR e_j; j+1].
	Vertical
)

// Arc is a directed butterfly arc leaving level Level from row Row.
type Arc struct {
	Row   Row
	Level Level
	Kind  ArcKind
}

// MaxDimension bounds the supported butterfly dimension.
const MaxDimension = 20

// Butterfly describes a d-dimensional butterfly.
type Butterfly struct {
	d    int
	rows int // 2^d
}

// New returns the d-dimensional butterfly. It panics if d is outside
// [1, MaxDimension].
func New(d int) *Butterfly {
	if d < 1 || d > MaxDimension {
		panic(fmt.Sprintf("butterfly: dimension %d out of range [1,%d]", d, MaxDimension))
	}
	return &Butterfly{d: d, rows: 1 << uint(d)}
}

// Dimension returns d.
func (b *Butterfly) Dimension() int { return b.d }

// NumArcs returns the total arc count d·2^(d+1) (two arcs out of every node
// in levels 1..d).
func (b *Butterfly) NumArcs() int { return 2 * b.d * b.rows }

// ArcIndex maps an arc to a dense index in [0, NumArcs()). Arcs are grouped
// by level, then by kind (straight first), then by row.
func (b *Butterfly) ArcIndex(a Arc) int {
	b.checkArcLevel(a.Level)
	if int(a.Row) >= b.rows {
		panic(fmt.Sprintf("butterfly: row %d outside %d-butterfly", a.Row, b.d))
	}
	kindOffset := 0
	if a.Kind == Vertical {
		kindOffset = b.rows
	}
	return (int(a.Level)-1)*2*b.rows + kindOffset + int(a.Row)
}

// LevelOfArcIndex returns the level an arc index belongs to.
func (b *Butterfly) LevelOfArcIndex(idx int) Level {
	if idx < 0 || idx >= b.NumArcs() {
		panic(fmt.Sprintf("butterfly: arc index %d out of range", idx))
	}
	return Level(idx/(2*b.rows)) + 1
}

// KindOfArcIndex returns the kind of the arc with the given index.
func (b *Butterfly) KindOfArcIndex(idx int) ArcKind {
	if idx < 0 || idx >= b.NumArcs() {
		panic(fmt.Sprintf("butterfly: arc index %d out of range", idx))
	}
	if idx%(2*b.rows) >= b.rows {
		return Vertical
	}
	return Straight
}

// Hamming returns the Hamming distance between two rows.
func Hamming(x, z Row) int { return bits.OnesCount32(uint32(x ^ z)) }

func (b *Butterfly) checkArcLevel(j Level) {
	if j < 1 || int(j) > b.d {
		panic(fmt.Sprintf("butterfly: arcs leave levels 1..%d, got level %d", b.d, j))
	}
}
