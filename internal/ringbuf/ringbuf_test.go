package ringbuf

import "testing"

func TestPushPopFIFOOrder(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d", r.Len())
	}
	for i := 0; i < 100; i++ {
		if v := r.PopFront(); v != i {
			t.Fatalf("PopFront = %d, want %d", v, i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after drain = %d", r.Len())
	}
}

func TestWrapAround(t *testing.T) {
	// Interleave pushes and pops so head wraps around the capacity boundary
	// many times, checking FIFO order throughout.
	var r Ring[int]
	next, expect := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if v := r.PopFront(); v != expect {
				t.Fatalf("round %d: PopFront = %d, want %d", round, v, expect)
			}
			expect++
		}
	}
	for r.Len() > 0 {
		if v := r.PopFront(); v != expect {
			t.Fatalf("drain: PopFront = %d, want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("popped %d values, pushed %d", expect, next)
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var r Ring[int]
	r.PopFront()
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	var r Ring[*int]
	v := new(int)
	// Warm up to steady-state capacity.
	for i := 0; i < 16; i++ {
		r.Push(v)
	}
	for r.Len() > 0 {
		r.PopFront()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			r.Push(v)
		}
		for r.Len() > 0 {
			r.PopFront()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %v per run, want 0", allocs)
	}
}

// BenchmarkRingPushPop measures the steady-state FIFO cycle: the queue holds
// a backlog and every service pushes one arrival and pops one departure.
func BenchmarkRingPushPop(b *testing.B) {
	var r Ring[*int]
	v := new(int)
	for i := 0; i < 64; i++ {
		r.Push(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(v)
		r.PopFront()
	}
}

// BenchmarkSliceCopyDequeue is the pre-ring baseline for comparison: the
// O(n) copy dequeue the arc queues used before.
func BenchmarkSliceCopyDequeue(b *testing.B) {
	q := make([]*int, 0, 128)
	v := new(int)
	for i := 0; i < 64; i++ {
		q = append(q, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q = append(q, v)
		copy(q, q[1:])
		q[len(q)-1] = nil
		q = q[:len(q)-1]
	}
}
