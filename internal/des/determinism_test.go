package des

import (
	"container/heap"
	"testing"

	"repro/internal/xrand"
)

// This file proves that the typed 4-ary calendar reproduces the exact
// (time, seq) event order of the calendar it replaced. refSimulator below is
// the old implementation — a container/heap binary heap of *refEvent with
// lazy cancellation — kept verbatim as the reference. Both simulators are
// driven through the same E1-style workload (on the typed calendar, each
// event body runs through the calls test handler as a cancellable event) (per-source
// self-rescheduling Poisson arrivals feeding unit-service FIFO queues, plus
// random cancellations), and the recorded golden traces must match entry for
// entry. Because every schedule call consumes one global sequence number and
// (time, seq) is a total order, any divergence in heap layout, arity or
// free-list behaviour would surface as a trace mismatch.

type refEvent struct {
	time      float64
	seq       uint64
	fn        func()
	cancelled bool
	index     int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// refSimulator is the pre-refactor des.Simulator, reduced to the API the
// workload needs.
type refSimulator struct {
	now    float64
	seq    uint64
	events refHeap
}

func (s *refSimulator) Now() float64 { return s.now }

func (s *refSimulator) at(t float64, fn func()) *refEvent {
	ev := &refEvent{time: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, ev)
	return ev
}

func (s *refSimulator) after(delay float64, fn func()) *refEvent {
	return s.at(s.now+delay, fn)
}

func (s *refSimulator) cancel(ev *refEvent) { ev.cancelled = true }

func (s *refSimulator) RunUntil(horizon float64) {
	for {
		ev := s.peek()
		if ev == nil {
			break
		}
		if ev.time > horizon {
			s.now = horizon
			return
		}
		s.step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

func (s *refSimulator) step() bool {
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(*refEvent)
		if ev.cancelled {
			continue
		}
		s.now = ev.time
		ev.fn()
		return true
	}
	return false
}

func (s *refSimulator) peek() *refEvent {
	for len(s.events) > 0 {
		ev := s.events[0]
		if !ev.cancelled {
			return ev
		}
		heap.Pop(&s.events)
	}
	return nil
}

// traceEntry is one fired event in a golden trace.
type traceEntry struct {
	time float64
	id   int
}

// calendar abstracts the two simulators for the shared workload driver.
type calendar interface {
	Now() float64
	scheduleAt(t float64, fn func())
	schedule(delay float64, fn func())
	cancelLast()
	runUntil(horizon float64)
}

type newCal struct {
	c    *calls
	last EventRef
}

func (n *newCal) Now() float64                    { return n.c.s.Now() }
func (n *newCal) scheduleAt(t float64, fn func()) { n.last = n.c.cancellableAt(t, fn) }
func (n *newCal) schedule(delay float64, fn func()) {
	n.last = n.c.s.ScheduleCancellable(delay, n.c.h, 0, n.c.add(fn))
}
func (n *newCal) cancelLast()        { n.c.s.CancelRef(n.last) }
func (n *newCal) runUntil(h float64) { n.c.s.RunUntil(h) }

type refCal struct {
	sim  *refSimulator
	last *refEvent
}

func (c *refCal) Now() float64                      { return c.sim.Now() }
func (c *refCal) scheduleAt(t float64, fn func())   { c.last = c.sim.at(t, fn) }
func (c *refCal) schedule(delay float64, fn func()) { c.last = c.sim.after(delay, fn) }
func (c *refCal) cancelLast()                       { c.sim.cancel(c.last) }
func (c *refCal) runUntil(h float64)                { c.sim.RunUntil(h) }

// runE1StyleWorkload drives an E1-like simulation on the given calendar: n
// Poisson sources each feed a chain of FIFO unit-service queues (modelled as
// self-rescheduling completion events), and a low-rate "reroute" process
// cancels its own pending timer, exercising lazy deletion. The returned
// golden trace records (time, id) of every fired event.
func runE1StyleWorkload(cal calendar, seed uint64, horizon float64) []traceEntry {
	var trace []traceEntry
	rng := xrand.New(seed)
	nextID := 0
	record := func() int {
		id := nextID
		nextID++
		return id
	}

	const sources = 16
	const hops = 3

	// Per-source arrival processes: each arrival walks "hops" unit services,
	// each modelled by a schedule(1) completion.
	var arrive func(src int)
	var hop func(remaining int)
	hop = func(remaining int) {
		id := record()
		cal.schedule(1, func() {
			trace = append(trace, traceEntry{cal.Now(), id})
			if remaining > 1 {
				hop(remaining - 1)
			}
		})
	}
	arrive = func(src int) {
		delay := rng.Exp(0.7)
		id := record()
		cal.schedule(delay, func() {
			trace = append(trace, traceEntry{cal.Now(), id})
			hop(hops)
			arrive(src)
		})
	}
	for srcIdx := 0; srcIdx < sources; srcIdx++ {
		arrive(srcIdx)
	}

	// A timer that usually cancels and replaces itself before firing, the
	// PS-reschedule pattern that stresses lazy deletion.
	var timer func()
	timer = func() {
		id := record()
		cal.schedule(rng.Exp(2), func() {
			trace = append(trace, traceEntry{cal.Now(), id})
			timer()
		})
		if rng.Bernoulli(0.5) {
			cal.cancelLast()
			id2 := record()
			cal.scheduleAt(cal.Now()+rng.Exp(1), func() {
				trace = append(trace, traceEntry{cal.Now(), id2})
				timer()
			})
		}
	}
	timer()

	cal.runUntil(horizon)
	return trace
}

func TestGoldenTraceMatchesReferenceCalendar(t *testing.T) {
	for _, seed := range []uint64{1, 42, 12345} {
		newTrace := runE1StyleWorkload(&newCal{c: newCalls(New())}, seed, 200)
		refTrace := runE1StyleWorkload(&refCal{sim: &refSimulator{}}, seed, 200)
		if len(newTrace) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		if len(newTrace) != len(refTrace) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(newTrace), len(refTrace))
		}
		for i := range newTrace {
			if newTrace[i] != refTrace[i] {
				t.Fatalf("seed %d: traces diverge at event %d: new %+v, ref %+v",
					seed, i, newTrace[i], refTrace[i])
			}
		}
	}
}
