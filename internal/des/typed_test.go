package des

import (
	"testing"
)

// recorder collects typed-event dispatches.
type recorder struct {
	kinds  []int32
	owners []int32
	times  []float64
	sim    *Simulator
}

func (r *recorder) HandleEvent(kind, owner int32) {
	r.kinds = append(r.kinds, kind)
	r.owners = append(r.owners, owner)
	r.times = append(r.times, r.sim.Now())
}

func TestTypedEventsDispatchInOrder(t *testing.T) {
	s := New()
	r := &recorder{sim: s}
	h := s.RegisterHandler(r)
	s.ScheduleEventAt(3, h, 1, 30)
	s.ScheduleEventAt(1, h, 2, 10)
	s.ScheduleEventAt(2, h, 3, 20)
	run(s)
	if len(r.kinds) != 3 {
		t.Fatalf("dispatched %d events", len(r.kinds))
	}
	for i, want := range []int32{2, 3, 1} {
		if r.kinds[i] != want {
			t.Fatalf("kinds = %v", r.kinds)
		}
	}
	for i, want := range []int32{10, 20, 30} {
		if r.owners[i] != want {
			t.Fatalf("owners = %v", r.owners)
		}
	}
}

// appender writes a tag into a shared order slice on every dispatch, so
// events of several handlers can be traced into one interleaving.
type appender struct {
	order *[]string
	tag   string
}

func (a *appender) HandleEvent(_, _ int32) { *a.order = append(*a.order, a.tag) }

func TestTypedAndClosureEventsInterleaveBySeq(t *testing.T) {
	// Simultaneous events of two handlers — a recorder and the closure-running
	// test handler — must fire in scheduling order.
	s := New()
	var order []string
	h := s.RegisterHandler(&appender{order: &order, tag: "typed"})
	c := newCalls(s)
	c.at(1, func() { order = append(order, "closure1") })
	s.ScheduleEventAt(1, h, 0, 0)
	c.at(1, func() { order = append(order, "closure2") })
	run(s)
	want := []string{"closure1", "typed", "closure2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleEventPastPanics(t *testing.T) {
	s := New()
	h := s.RegisterHandler(&recorder{sim: s})
	s.ScheduleEventAt(5, h, 0, 0)
	run(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling typed event in the past")
		}
	}()
	s.ScheduleEventAt(1, h, 0, 0)
}

func TestUnregisteredHandlerPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unregistered handler")
		}
	}()
	s.ScheduleEventAt(1, HandlerID(3), 0, 0)
}

func TestCancelRef(t *testing.T) {
	s := New()
	r := &recorder{sim: s}
	h := s.RegisterHandler(r)
	ref := s.ScheduleCancellableAt(1, h, 1, 0)
	s.ScheduleCancellableAt(2, h, 2, 0)
	s.CancelRef(ref)
	run(s)
	if len(r.kinds) != 1 || r.kinds[0] != 2 {
		t.Fatalf("kinds = %v, want [2]", r.kinds)
	}
	// Cancelling after the fact (stale generation) must be a no-op.
	s.CancelRef(ref)
	// Zero ref is inert.
	s.CancelRef(EventRef{})
}

func TestCancelRefStaleGenerationDoesNotCancelRecycledSlot(t *testing.T) {
	s := New()
	r := &recorder{sim: s}
	h := s.RegisterHandler(r)
	ref1 := s.ScheduleCancellableAt(1, h, 1, 0)
	run(s) // fires and recycles the slot
	ref2 := s.ScheduleCancellableAt(2, h, 2, 0)
	s.CancelRef(ref1) // stale: must not cancel ref2's event in the same slot
	run(s)
	if len(r.kinds) != 2 {
		t.Fatalf("kinds = %v, want both events fired", r.kinds)
	}
	s.CancelRef(ref2) // after fire: no-op
}

func TestChannelEventsMergeWithHeapInSeqOrder(t *testing.T) {
	// Heap and channel events at equal times must fire in scheduling order,
	// exactly as if they all lived in one heap.
	s := New()
	r := &recorder{sim: s}
	h := s.RegisterHandler(r)
	ch := s.NewChannel()
	s.ScheduleEventAt(1, h, 0, 0)       // seq 0, heap
	s.ScheduleChannelAt(ch, 1, h, 0, 1) // seq 1, channel
	s.ScheduleEventAt(1, h, 0, 2)       // seq 2, heap
	s.ScheduleChannelAt(ch, 2, h, 0, 3) // seq 3, channel
	s.ScheduleEventAt(1.5, h, 0, 4)     // seq 4, heap
	run(s)
	want := []int32{0, 1, 2, 4, 3}
	if len(r.owners) != len(want) {
		t.Fatalf("owners = %v", r.owners)
	}
	for i := range want {
		if r.owners[i] != want[i] {
			t.Fatalf("owners = %v, want %v", r.owners, want)
		}
	}
}

func TestChannelNonMonotonePanics(t *testing.T) {
	s := New()
	h := s.RegisterHandler(&recorder{sim: s})
	ch := s.NewChannel()
	s.ScheduleChannelAt(ch, 5, h, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-monotone channel schedule")
		}
	}()
	s.ScheduleChannelAt(ch, 4, h, 0, 0)
}

// selfScheduler reschedules itself n times, mimicking a steady-state service
// loop; used by the alloc regression tests and benchmarks.
type selfScheduler struct {
	sim   *Simulator
	h     HandlerID
	ch    ChannelID
	useCh bool
	left  int
}

func (d *selfScheduler) HandleEvent(_, _ int32) {
	if d.left == 0 {
		return
	}
	d.left--
	if d.useCh {
		d.sim.ScheduleChannel(d.ch, 1, d.h, 0, 0)
	} else {
		d.sim.ScheduleEventAt(d.sim.Now()+1, d.h, 0, 0)
	}
}

// TestScheduleFireZeroAllocs is the allocation regression test for the typed
// calendar: once the heap slice has grown, a steady-state schedule/fire loop
// must not allocate at all.
func TestScheduleFireZeroAllocs(t *testing.T) {
	s := New()
	d := &selfScheduler{sim: s}
	d.h = s.RegisterHandler(d)
	d.ch = s.NewChannel()

	// Warm up so heap, channel ring and slot free list reach capacity.
	d.left = 64
	s.ScheduleEventAt(s.Now()+1, d.h, 0, 0)
	run(s)

	allocs := testing.AllocsPerRun(100, func() {
		d.left = 64
		s.ScheduleEventAt(s.Now(), d.h, 0, 0)
		run(s)
	})
	if allocs != 0 {
		t.Fatalf("typed schedule/fire allocates %v per run, want 0", allocs)
	}

	d.useCh = true
	allocs = testing.AllocsPerRun(100, func() {
		d.left = 64
		s.ScheduleChannel(d.ch, 0, d.h, 0, 0)
		run(s)
	})
	if allocs != 0 {
		t.Fatalf("channel schedule/fire allocates %v per run, want 0", allocs)
	}
}

// TestCancellableScheduleCancelZeroAllocs checks that schedule/cancel churn
// recycles cancellation slots instead of allocating.
func TestCancellableScheduleCancelZeroAllocs(t *testing.T) {
	s := New()
	r := &recorder{sim: s}
	h := s.RegisterHandler(r)
	// Warm up the slot free list and heap.
	for i := 0; i < 64; i++ {
		s.CancelRef(s.ScheduleCancellableAt(1, h, 0, 0))
	}
	run(s)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			ref := s.ScheduleCancellable(1, h, 0, 0)
			s.CancelRef(ref)
		}
		run(s)
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel churn allocates %v per run, want 0", allocs)
	}
}

// BenchmarkTypedScheduleFire measures the pure calendar cycle on the heap
// path with a realistic pending-event population.
func BenchmarkTypedScheduleFire(b *testing.B) {
	s := New()
	d := &selfScheduler{sim: s}
	d.h = s.RegisterHandler(d)
	// Keep 256 events pending so heap depth is realistic.
	for i := 0; i < 256; i++ {
		s.ScheduleEventAt(s.Now()+float64(i%7)+1, d.h, 0, 0)
	}
	d.left = b.N
	b.ReportAllocs()
	b.ResetTimer()
	run(s)
}

// BenchmarkChannelScheduleFire measures the monotone-channel cycle used by
// constant-service completions.
func BenchmarkChannelScheduleFire(b *testing.B) {
	s := New()
	d := &selfScheduler{sim: s, useCh: true}
	d.h = s.RegisterHandler(d)
	d.ch = s.NewChannel()
	d.left = b.N
	b.ReportAllocs()
	b.ResetTimer()
	s.ScheduleChannel(d.ch, 1, d.h, 0, 0)
	run(s)
}

// BenchmarkScheduleFireCancelMix exercises the cancellable path: schedule
// two, cancel one, fire one — the PS reschedule pattern.
func BenchmarkScheduleFireCancelMix(b *testing.B) {
	s := New()
	r := &recorder{sim: s}
	h := s.RegisterHandler(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := s.ScheduleCancellable(1, h, 0, 0)
		s.ScheduleCancellable(1.5, h, 0, 0)
		s.CancelRef(ref)
		step(s)
		r.kinds = r.kinds[:0]
		r.owners = r.owners[:0]
		r.times = r.times[:0]
	}
}
