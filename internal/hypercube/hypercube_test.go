package hypercube

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewPanicsOnBadDimension(t *testing.T) {
	for _, d := range []int{0, -1, MaxDimension + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d) did not panic", d)
				}
			}()
			New(d)
		}()
	}
}

func TestBasicCounts(t *testing.T) {
	for d := 1; d <= 10; d++ {
		c := New(d)
		if c.Dimension() != d {
			t.Fatalf("Dimension() = %d", c.Dimension())
		}
		if c.Nodes() != 1<<uint(d) {
			t.Fatalf("Nodes() = %d for d=%d", c.Nodes(), d)
		}
		if c.NumArcs() != d*(1<<uint(d)) {
			t.Fatalf("NumArcs() = %d for d=%d", c.NumArcs(), d)
		}
	}
}

func TestUnitAndBit(t *testing.T) {
	c := New(4)
	if c.Unit(1) != 1 || c.Unit(2) != 2 || c.Unit(3) != 4 || c.Unit(4) != 8 {
		t.Fatal("Unit values wrong")
	}
}

func TestFlipInvolution(t *testing.T) {
	c := New(6)
	rng := xrand.New(1)
	for i := 0; i < 1000; i++ {
		x := Node(rng.Intn(c.Nodes()))
		m := Dimension(rng.Intn(6) + 1)
		if c.Flip(c.Flip(x, m), m) != x {
			t.Fatalf("Flip is not an involution at x=%d m=%d", x, m)
		}
		if Hamming(x, c.Flip(x, m)) != 1 {
			t.Fatal("Flip should change exactly one bit")
		}
	}
}

func TestHammingKnownValues(t *testing.T) {
	cases := []struct {
		x, y Node
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0b101, 0b010, 3},
		{0b1111, 0b0000, 4},
		{0b1010, 0b1010, 0},
	}
	for _, tc := range cases {
		if got := Hamming(tc.x, tc.y); got != tc.want {
			t.Fatalf("Hamming(%b,%b) = %d want %d", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestArcIndexRoundTrip(t *testing.T) {
	c := New(5)
	seen := make([]bool, c.NumArcs())
	var arcs []Arc
	for m := Dimension(1); int(m) <= c.Dimension(); m++ {
		for x := Node(0); int(x) < c.Nodes(); x++ {
			arcs = append(arcs, c.Arc(x, m))
		}
	}
	for _, a := range arcs {
		idx := c.ArcIndex(a)
		if idx < 0 || idx >= c.NumArcs() {
			t.Fatalf("index %d out of range", idx)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
		back := c.ArcAt(idx)
		if back != a {
			t.Fatalf("round trip failed: %v -> %d -> %v", a, idx, back)
		}
		if c.DimensionOfArcIndex(idx) != a.Dim {
			t.Fatalf("DimensionOfArcIndex(%d) = %d want %d", idx, c.DimensionOfArcIndex(idx), a.Dim)
		}
	}
	for _, ok := range seen {
		if !ok {
			t.Fatal("some arc index never produced")
		}
	}
}

func TestArcIndexPanics(t *testing.T) {
	c := New(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for bad dimension")
			}
		}()
		c.ArcIndex(Arc{From: 0, To: 1, Dim: 9})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for out-of-range node")
			}
		}()
		c.ArcIndex(Arc{From: 200, To: 201, Dim: 1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for bad arc index")
			}
		}()
		c.ArcAt(-1)
	}()
}

func TestDiffDimensionsIncreasingOrder(t *testing.T) {
	c := New(8)
	rng := xrand.New(2)
	for i := 0; i < 2000; i++ {
		x := Node(rng.Intn(c.Nodes()))
		z := Node(rng.Intn(c.Nodes()))
		dims := c.DiffDimensions(x, z)
		if len(dims) != Hamming(x, z) {
			t.Fatalf("DiffDimensions length %d != Hamming %d", len(dims), Hamming(x, z))
		}
		for j := 1; j < len(dims); j++ {
			if dims[j] <= dims[j-1] {
				t.Fatalf("dimensions not strictly increasing: %v", dims)
			}
		}
		// Applying the flips reconstructs z.
		cur := x
		for _, m := range dims {
			cur = c.Flip(cur, m)
		}
		if cur != z {
			t.Fatalf("flipping DiffDimensions does not reach destination")
		}
	}
}

func TestCanonicalPathMatchesPaperExample(t *testing.T) {
	// Paper example (§1.1): the greedy path (0,0,0,0) -> (1,0,1,1) crosses
	// dimensions 1, 2, 4 in increasing order: (0000)->(0001)->(0011)->(1011).
	c := New(4)
	var seq []Node
	cur := Node(0b0000)
	for _, m := range c.DiffDimensions(cur, 0b1011) {
		cur = c.Flip(cur, m)
		seq = append(seq, cur)
	}
	want := []Node{0b0001, 0b0011, 0b1011}
	if len(seq) != len(want) {
		t.Fatalf("path length %d", len(seq))
	}
	for i := range seq {
		if seq[i] != want[i] {
			t.Fatalf("canonical path nodes %v, want %v", seq, want)
		}
	}
}

// bfsDistances returns the graph distance from src to every node, walking
// the cube's arcs with Flip.
func bfsDistances(c *Cube, src Node) []int {
	dist := make([]int, c.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []Node{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for m := Dimension(1); int(m) <= c.Dimension(); m++ {
			if y := c.Flip(x, m); dist[y] < 0 {
				dist[y] = dist[x] + 1
				queue = append(queue, y)
			}
		}
	}
	return dist
}

func TestBFSMatchesHamming(t *testing.T) {
	for d := 1; d <= 7; d++ {
		c := New(d)
		dist := bfsDistances(c, 0)
		for z := Node(0); int(z) < c.Nodes(); z++ {
			if dist[z] != Hamming(0, z) {
				t.Fatalf("d=%d node %d: BFS %d vs Hamming %d", d, z, dist[z], Hamming(0, z))
			}
		}
	}
}

func TestBFSFromNonZeroSource(t *testing.T) {
	c := New(5)
	src := Node(21)
	dist := bfsDistances(c, src)
	for z := Node(0); int(z) < c.Nodes(); z++ {
		if dist[z] != Hamming(src, z) {
			t.Fatalf("node %d: BFS %d vs Hamming %d", z, dist[z], Hamming(src, z))
		}
	}
}

// Property: ArcIndex is a bijection onto [0, NumArcs).
func TestQuickArcIndexBijective(t *testing.T) {
	c := New(9)
	f := func(xr uint16, mr uint8) bool {
		x := Node(xr) & Node(c.Nodes()-1)
		m := Dimension(int(mr)%c.Dimension() + 1)
		a := c.Arc(x, m)
		idx := c.ArcIndex(a)
		return idx >= 0 && idx < c.NumArcs() && c.ArcAt(idx) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHamming(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		sink = Hamming(Node(i), Node(i*7))
	}
	_ = sink
}
