package network

import (
	"testing"
)

// loopSource keeps a single arc saturated: every delivery re-injects the
// delivered packet through the same arc, so the steady-state loop exercises
// enqueue, service completion, delivery statistics and the packet pool.
type loopSource struct {
	sys  *System
	left int
}

func (l *loopSource) inject() {
	p := l.sys.AcquirePacket()
	p.ID = l.sys.NewPacketID()
	p.Path = append(p.Path[:0], 0)
	l.sys.Inject(p)
}

// TestPacketTraversalZeroAllocs is the allocation regression test for the
// packet hot path: once pools and rings are warm, a full
// inject -> queue -> serve -> deliver -> recycle cycle must not allocate.
func TestPacketTraversalZeroAllocs(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 1})
	l := &loopSource{sys: sys}
	sys.OnDeliver = func(*Packet, float64) {
		if l.left > 0 {
			l.left--
			l.inject()
		}
	}
	// Warm up: grow the calendar, the arc ring and the packet pool.
	l.left = 64
	for i := 0; i < 8; i++ {
		l.inject()
	}
	sys.Sim.Run()

	allocs := testing.AllocsPerRun(100, func() {
		l.left = 64
		for i := 0; i < 8; i++ {
			l.inject()
		}
		sys.Sim.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state packet traversal allocates %v per run, want 0", allocs)
	}
}

// TestAcquirePacketRecycling checks that delivered pooled packets are reused
// and that caller-built packets never enter the pool.
func TestAcquirePacketRecycling(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 1})
	p1 := sys.AcquirePacket()
	p1.ID = sys.NewPacketID()
	p1.Path = append(p1.Path[:0], 0)
	at(sys, 0, func() { sys.Inject(p1) })
	sys.Sim.Run()
	p2 := sys.AcquirePacket()
	if p2 != p1 {
		t.Fatal("delivered pooled packet was not recycled")
	}
	if len(p2.Path) != 0 || p2.ID != 0 {
		t.Fatalf("recycled packet not reset: ID=%d Path=%v", p2.ID, p2.Path)
	}

	direct := &Packet{ID: 99, Path: []int{0}}
	at(sys, sys.Sim.Now(), func() { sys.Inject(direct) })
	sys.Sim.Run()
	p3 := sys.AcquirePacket()
	if p3 == direct {
		t.Fatal("caller-built packet must not enter the pool")
	}
}

// TestDrainStopsWhenEmpty checks that running the calendar dry delivers every
// packet and stops at the last departure.
func TestDrainStopsWhenEmpty(t *testing.T) {
	sys := NewSystem(Config{NumArcs: 2})
	sys.Inject(&Packet{ID: 1, Path: []int{0, 1}})
	sys.Inject(&Packet{ID: 2, Path: []int{0, 1}})
	sys.Sim.Run()
	if m := sys.Snapshot(); m.InFlight != 0 {
		t.Fatalf("in flight after drain: %d", m.InFlight)
	}
	// Two packets share arc 0 then arc 1: second finishes at time 3.
	if end := sys.Sim.Now(); end != 3 {
		t.Fatalf("drain time = %v, want 3", end)
	}
}

// BenchmarkSingleArcServiceLoop measures the cost of one packet traversal of
// one arc in steady state (schedule + complete + stats + recycle), the
// finest-grained unit of simulation work.
func BenchmarkSingleArcServiceLoop(b *testing.B) {
	sys := NewSystem(Config{NumArcs: 1})
	left := b.N
	inject := func() {
		p := sys.AcquirePacket()
		p.ID = sys.NewPacketID()
		p.Path = append(p.Path[:0], 0)
		sys.Inject(p)
	}
	sys.OnDeliver = func(*Packet, float64) {
		if left > 0 {
			left--
			inject()
		}
	}
	// Keep a small backlog so the arc never idles.
	for i := 0; i < 4; i++ {
		inject()
	}
	b.ReportAllocs()
	b.ResetTimer()
	sys.Sim.Run()
}

// BenchmarkEightArcPipeline measures a packet crossing an 8-arc pipeline,
// amortising injection cost over several hops (the hypercube regime).
func BenchmarkEightArcPipeline(b *testing.B) {
	const arcs = 8
	sys := NewSystem(Config{NumArcs: arcs})
	left := b.N
	inject := func() {
		p := sys.AcquirePacket()
		p.ID = sys.NewPacketID()
		p.Path = p.Path[:0]
		for a := 0; a < arcs; a++ {
			p.Path = append(p.Path, a)
		}
		sys.Inject(p)
	}
	sys.OnDeliver = func(*Packet, float64) {
		if left > 0 {
			left--
			inject()
		}
	}
	for i := 0; i < 4; i++ {
		inject()
	}
	b.ReportAllocs()
	b.ResetTimer()
	sys.Sim.Run()
}
