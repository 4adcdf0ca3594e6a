package butterfly

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadDimension(t *testing.T) {
	for _, d := range []int{0, -3, MaxDimension + 1} {
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

func TestCounts(t *testing.T) {
	for d := 1; d <= 8; d++ {
		b := New(d)
		if b.Dimension() != d {
			t.Fatalf("Dimension = %d", b.Dimension())
		}
		if b.NumArcs() != 2*d*(1<<uint(d)) {
			t.Fatalf("NumArcs = %d", b.NumArcs())
		}
	}
}

func TestArcIndexRoundTrip(t *testing.T) {
	b := New(5)
	seen := make([]bool, b.NumArcs())
	var arcs []Arc
	for j := Level(1); int(j) <= b.Dimension(); j++ {
		for _, k := range []ArcKind{Straight, Vertical} {
			for x := Row(0); x < 1<<5; x++ {
				arcs = append(arcs, Arc{Row: x, Level: j, Kind: k})
			}
		}
	}
	for _, a := range arcs {
		idx := b.ArcIndex(a)
		if idx < 0 || idx >= b.NumArcs() {
			t.Fatalf("index out of range: %d", idx)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
		if b.LevelOfArcIndex(idx) != a.Level {
			t.Fatal("LevelOfArcIndex mismatch")
		}
		if b.KindOfArcIndex(idx) != a.Kind {
			t.Fatal("KindOfArcIndex mismatch")
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d never produced", i)
		}
	}
}

func TestArcIndexPanics(t *testing.T) {
	b := New(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		b.ArcIndex(Arc{Row: 0, Level: 0, Kind: Straight})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		b.LevelOfArcIndex(-1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		b.KindOfArcIndex(9999)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		b.ArcIndex(Arc{Row: 999, Level: 1, Kind: Straight})
	}()
}

func TestHammingKnownValues(t *testing.T) {
	if Hamming(0b1010, 0b0101) != 4 {
		t.Fatal("Hamming wrong")
	}
	if Hamming(7, 7) != 0 {
		t.Fatal("Hamming wrong")
	}
}

// Property: ArcIndex stays in range and its level and kind decode back.
func TestQuickArcIndexBijective(t *testing.T) {
	b := New(8)
	mask := Row(1<<8 - 1)
	f := func(xr uint16, lr uint8, vertical bool) bool {
		x := Row(xr) & mask
		level := Level(int(lr)%b.Dimension() + 1)
		kind := Straight
		if vertical {
			kind = Vertical
		}
		a := Arc{Row: x, Level: level, Kind: kind}
		idx := b.ArcIndex(a)
		return idx >= 0 && idx < b.NumArcs() && b.LevelOfArcIndex(idx) == level && b.KindOfArcIndex(idx) == kind
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
