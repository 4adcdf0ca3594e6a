package des

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// calls is a test handler that runs one function per event: an event's
// owner indexes fns. It lets the calendar tests below state their event
// bodies inline while every event goes through the typed calendar.
type calls struct {
	s   *Simulator
	h   HandlerID
	fns []func()
}

func newCalls(s *Simulator) *calls {
	c := &calls{s: s}
	c.h = s.RegisterHandler(c)
	return c
}

func (c *calls) HandleEvent(_, owner int32) { c.fns[owner]() }

// add files fn and returns its owner index.
func (c *calls) add(fn func()) int32 {
	c.fns = append(c.fns, fn)
	return int32(len(c.fns) - 1)
}

// at schedules fn at absolute time t.
func (c *calls) at(t float64, fn func()) { c.s.ScheduleEventAt(t, c.h, 0, c.add(fn)) }

// after schedules fn delay time units from now through the relative-delay
// API, which rejects a negative delay.
func (c *calls) after(delay float64, fn func()) { c.s.ScheduleCancellable(delay, c.h, 0, c.add(fn)) }

// cancellableAt schedules fn at absolute time t and returns its reference.
func (c *calls) cancellableAt(t float64, fn func()) EventRef {
	return c.s.ScheduleCancellableAt(t, c.h, 0, c.add(fn))
}

// step fires the next live event and reports whether there was one.
func step(s *Simulator) bool {
	it, src := s.liveHead()
	if it == nil {
		return false
	}
	s.fire(src)
	return true
}

// run fires events until the calendar is empty, leaving the clock at the
// last event's time.
func run(s *Simulator) {
	for step(s) {
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	c := newCalls(s)
	var fired []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, tm := range times {
		c.at(tm, func() { fired = append(fired, tm) })
	}
	run(s)
	if len(fired) != len(times) {
		t.Fatalf("fired %d events", len(fired))
	}
	if !sort.Float64sAreSorted(fired) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	c := newCalls(s)
	var order []int
	for i := 0; i < 100; i++ {
		c.at(1.0, func() { order = append(order, i) })
	}
	run(s)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not in scheduling order: %v", order[:10])
		}
	}
}

func TestScheduleRelative(t *testing.T) {
	s := New()
	c := newCalls(s)
	var hit []float64
	c.after(2, func() {
		hit = append(hit, s.Now())
		c.after(3, func() { hit = append(hit, s.Now()) })
	})
	run(s)
	if len(hit) != 2 || hit[0] != 2 || hit[1] != 5 {
		t.Fatalf("hit = %v", hit)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	c := newCalls(s)
	c.at(5, func() {})
	run(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	c.at(1, func() {})
}

func TestScheduleNegativeDelayPanics(t *testing.T) {
	c := newCalls(New())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.after(-1, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	c := newCalls(New())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.at(nan(), func() {})
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestCancel(t *testing.T) {
	s := New()
	c := newCalls(s)
	fired := false
	ref := c.cancellableAt(1, func() { fired = true })
	keep := 0
	c.at(2, func() { keep++ })
	s.CancelRef(ref)
	run(s)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if keep != 1 {
		t.Fatal("non-cancelled event did not fire")
	}
	// Cancelling the zero reference or an already-discarded event must not panic.
	s.CancelRef(EventRef{})
	s.CancelRef(ref)
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	s := New()
	c := newCalls(s)
	count := 0
	for i := 1; i <= 10; i++ {
		c.at(float64(i), func() { count++ })
	}
	s.RunUntil(5.5)
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if s.Now() != 5.5 {
		t.Fatalf("clock = %v, want horizon", s.Now())
	}
	// Remaining events still fire on the next run.
	s.RunUntil(100)
	if count != 10 {
		t.Fatalf("count after second run = %d", count)
	}
}

func TestRunUntilEmptyCalendarAdvancesClock(t *testing.T) {
	s := New()
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestStepOnEmptyCalendar(t *testing.T) {
	s := New()
	if step(s) {
		t.Fatal("a step on an empty calendar fired an event")
	}
	if s.Now() != 0 {
		t.Fatalf("clock = %v", s.Now())
	}
}

// TestEventTimeAccessor checks that an event body reads its own scheduled
// time from the clock.
func TestEventTimeAccessor(t *testing.T) {
	s := New()
	c := newCalls(s)
	at := -1.0
	c.at(7.5, func() { at = s.Now() })
	run(s)
	if at != 7.5 {
		t.Fatalf("Now() inside the event = %v", at)
	}
}

func TestRescheduleDuringExecution(t *testing.T) {
	// A self-rescheduling event models a periodic process (the slotted-time
	// clock); make sure the pattern works and terminates with RunUntil.
	s := New()
	c := newCalls(s)
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		c.after(1, tick)
	}
	c.after(1, tick)
	s.RunUntil(10.5)
	if ticks != 10 {
		t.Fatalf("ticks = %d", ticks)
	}
}

func TestCancelAndRescheduleStress(t *testing.T) {
	// Randomly schedule and cancel events and verify that only non-cancelled
	// events fire, in non-decreasing time order.
	s := New()
	c := newCalls(s)
	rng := xrand.New(1)
	type rec struct {
		ref       EventRef
		cancelled bool
	}
	var recs []*rec
	fired := 0
	lastTime := -1.0
	for i := 0; i < 5000; i++ {
		tm := rng.Float64() * 1000
		r := &rec{}
		r.ref = c.cancellableAt(tm, func() {
			fired++
			if s.Now() < lastTime {
				t.Errorf("time went backwards: %v after %v", s.Now(), lastTime)
			}
			lastTime = s.Now()
			if r.cancelled {
				t.Error("cancelled event fired")
			}
		})
		recs = append(recs, r)
	}
	cancelled := 0
	for _, r := range recs {
		if rng.Bernoulli(0.3) {
			r.cancelled = true
			s.CancelRef(r.ref)
			cancelled++
		}
	}
	run(s)
	if fired != len(recs)-cancelled {
		t.Fatalf("fired %d, want %d", fired, len(recs)-cancelled)
	}
}

// Property: for any set of scheduling times, the observed firing sequence is
// the sorted sequence of times.
func TestQuickFiringOrderIsSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		c := newCalls(s)
		var fired []float64
		for _, r := range raw {
			c.at(float64(r)/16, func() { fired = append(fired, s.Now()) })
		}
		run(s)
		if len(fired) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	rng := xrand.New(2)
	times := make([]float64, 1024)
	for i := range times {
		times[i] = rng.Float64() * 1000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := newCalls(New())
		for _, tm := range times {
			c.at(tm, func() {})
		}
		run(c.s)
	}
}
