package ringbuf

import (
	"testing"

	"repro/internal/xrand"
)

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

func TestRemoveSwapMatchesSliceSwapRemove(t *testing.T) {
	// RemoveSwap must behave exactly like the slice idiom the random-order
	// discipline used: q[i] = q[len-1]; q = q[:len-1]. Run both against the
	// same random operation sequence and compare contents at every step.
	rng := xrand.New(7)
	var r Ring[int]
	var ref []int
	next := 0
	for op := 0; op < 5000; op++ {
		if r.Len() == 0 || rng.Bernoulli(0.6) {
			r.Push(next)
			ref = append(ref, next)
			next++
			continue
		}
		k := rng.Intn(len(ref))
		got := r.RemoveSwap(k)
		want := ref[k]
		ref[k] = ref[len(ref)-1]
		ref = ref[:len(ref)-1]
		if got != want {
			t.Fatalf("op %d: RemoveSwap(%d) = %d, want %d", op, k, got, want)
		}
		if r.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, r.Len(), len(ref))
		}
	}
	for i := range ref {
		if v := r.PopFront(); v != ref[i] {
			t.Fatalf("final contents diverge at %d: %d vs %d", i, v, ref[i])
		}
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
