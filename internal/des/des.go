// Package des is a small discrete-event simulation core: a simulation clock,
// an allocation-free event calendar with deterministic tie-breaking, event
// cancellation, and run-until controls. The equivalent queueing network Q
// (internal/queuenet) is built on it.
//
// # Typed events and the free-list calendar
//
// The calendar is a slice-of-struct 4-ary min-heap of value events
// {time, seq, kind, owner}; an event is dispatched by calling
// Handler.HandleEvent(kind, owner) on a handler registered up front with
// RegisterHandler. Scheduling a typed event (ScheduleEventAt)
// therefore performs no per-event allocation once the heap slice has grown to
// its steady-state size: the entry is a value pushed into the slice, and
// firing it pops the value and makes one interface call. Cancellable typed
// events (ScheduleCancellable*) draw a slot from a free list of generation-
// counted cancellation slots; firing or discarding the event recycles the
// slot, so schedule/cancel churn is allocation-free in steady state too.
// Event streams whose schedule times never decrease — constant-service
// completion streams, slot clocks — can bypass the heap entirely through
// monotone channels (NewChannel), which fire in O(1) per event.
//
// # Determinism
//
// Determinism matters: the paper's sample-path arguments (Lemmas 7-10) are
// verified by running two systems on a common event sequence, so simultaneous
// events must always fire in the order they were scheduled. Every schedule
// call consumes one monotonically increasing sequence number and the heap
// orders entries by (time, seq); since sequence numbers are unique the order
// "fire by (time, seq)" is a total order, so the extraction sequence is
// independent of the heap's internal layout (arity, swap pattern, free-list
// state). Replacing the old binary heap of *Event with the 4-ary value heap
// therefore reproduces byte-identical sample paths.
package des

import (
	"fmt"
	"math"
)

// Handler receives typed events. kind and owner are opaque to the calendar;
// by convention kind selects the action and owner the entity (an arc index, a
// server index, a source index, ...).
type Handler interface {
	HandleEvent(kind, owner int32)
}

// HandlerID identifies a handler registered with RegisterHandler.
type HandlerID int32

// heapArity is the fan-out of the implicit heap. A 4-ary heap does fewer,
// more cache-friendly levels than a binary heap for the same size, which
// measurably speeds up the pop-heavy simulation loop.
const heapArity = 4

// item is one calendar entry, stored by value in the heap slice.
type item struct {
	time  float64
	seq   uint64
	h     HandlerID
	kind  int32
	owner int32
	slot  int32 // cancellation slot index, -1 when not cancellable
}

// less orders calendar entries by (time, seq).
func less(a, b *item) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// cancelSlot is the shared cancellation state of one cancellable typed event.
// The generation counter invalidates stale EventRefs after the slot is
// recycled.
type cancelSlot struct {
	gen       uint32
	cancelled bool
}

// EventRef is a value handle to a cancellable typed event. The zero EventRef
// refers to no event; cancelling it is a no-op, so callers can track "no
// pending event" with the zero value.
type EventRef struct {
	slot int32 // slot index + 1, so the zero value is inert
	gen  uint32
}

// ChannelID identifies a monotone event channel created with NewChannel.
type ChannelID int32

// monoChannel is a FIFO ring of typed events whose schedule times are
// non-decreasing, so the ring order is already the fire order and push/pop
// are O(1). Service completions with a fixed service time are the canonical
// use: they are scheduled at now + S with now non-decreasing. Entries carry
// global sequence numbers, so merging a channel head with the heap head by
// (time, seq) reproduces exactly the order a single heap would produce.
// This is deliberately not ringbuf.Ring[item]: the dispatch loop peeks the
// head by pointer on every event (liveHead), and items are plain values that
// need no zero-on-pop for the GC.
type monoChannel struct {
	buf  []item
	head int
	n    int
	last float64
}

func (c *monoChannel) push(it item) {
	if c.n == len(c.buf) {
		newCap := 2 * len(c.buf)
		if newCap == 0 {
			newCap = 16
		}
		nb := make([]item, newCap)
		mask := len(c.buf) - 1
		for i := 0; i < c.n; i++ {
			nb[i] = c.buf[(c.head+i)&mask]
		}
		c.buf = nb
		c.head = 0
	}
	c.buf[(c.head+c.n)&(len(c.buf)-1)] = it
	c.n++
}

func (c *monoChannel) pop() item {
	it := c.buf[c.head]
	c.head = (c.head + 1) & (len(c.buf) - 1)
	c.n--
	return it
}

// Simulator owns the clock and the event calendar.
type Simulator struct {
	now      float64
	seq      uint64
	heap     []item
	channels []monoChannel
	handlers []Handler

	// Cancellation slots for typed events, recycled through a free list.
	slots    []cancelSlot
	slotFree []int32
}

// New returns a simulator with the clock at zero and an empty calendar.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// RegisterHandler registers a typed-event handler and returns its id.
// Handlers are expected to be registered during setup, before the run starts.
func (s *Simulator) RegisterHandler(h Handler) HandlerID {
	if h == nil {
		panic("des: RegisterHandler(nil)")
	}
	s.handlers = append(s.handlers, h)
	return HandlerID(len(s.handlers) - 1)
}

// checkTime validates an absolute schedule time. Scheduling in the past
// panics, since it would silently corrupt the sample path.
func (s *Simulator) checkTime(t float64) {
	if t < s.now {
		panic(fmt.Sprintf("des: schedule at %v before current time %v", t, s.now))
	}
	if math.IsNaN(t) {
		panic("des: schedule at NaN time")
	}
}

func (s *Simulator) checkHandler(h HandlerID) {
	if h < 0 || int(h) >= len(s.handlers) {
		panic(fmt.Sprintf("des: unregistered handler id %d", h))
	}
}

// ScheduleEventAt schedules a typed event at absolute time t. It does not
// allocate once the calendar has reached its steady-state capacity.
func (s *Simulator) ScheduleEventAt(t float64, h HandlerID, kind, owner int32) {
	s.checkTime(t)
	s.checkHandler(h)
	s.push(item{time: t, seq: s.nextSeq(), h: h, kind: kind, owner: owner, slot: -1})
}

// NewChannel creates a monotone event channel: a side calendar for typed,
// non-cancellable events whose schedule times never decrease across calls
// (constant-delay completion streams, slot clocks). Channel events cost O(1)
// to schedule and fire instead of O(log n), and they interleave with all
// other events in exact (time, seq) order, so using a channel never changes
// the sample path.
func (s *Simulator) NewChannel() ChannelID {
	s.channels = append(s.channels, monoChannel{})
	return ChannelID(len(s.channels) - 1)
}

// ScheduleChannelAt schedules a typed event on a monotone channel at absolute
// time t. It panics if t is earlier than the channel's previously scheduled
// time, since that would break the channel's FIFO fire order.
func (s *Simulator) ScheduleChannelAt(ch ChannelID, t float64, h HandlerID, kind, owner int32) {
	s.checkTime(t)
	s.checkHandler(h)
	c := &s.channels[ch]
	if t < c.last {
		panic(fmt.Sprintf("des: channel schedule at %v before previous %v", t, c.last))
	}
	c.last = t
	c.push(item{time: t, seq: s.nextSeq(), h: h, kind: kind, owner: owner, slot: -1})
}

// ScheduleChannel schedules a typed channel event delay time units from now.
// With a fixed delay per channel the monotonicity requirement holds
// automatically, because the clock never goes backwards.
func (s *Simulator) ScheduleChannel(ch ChannelID, delay float64, h HandlerID, kind, owner int32) {
	if delay < 0 {
		panic(fmt.Sprintf("des: Schedule with negative delay %v", delay))
	}
	s.ScheduleChannelAt(ch, s.now+delay, h, kind, owner)
}

// ScheduleCancellableAt schedules a typed event that can later be revoked
// with CancelRef. The cancellation slot comes from a free list, so the call
// is allocation-free in steady state.
func (s *Simulator) ScheduleCancellableAt(t float64, h HandlerID, kind, owner int32) EventRef {
	s.checkTime(t)
	s.checkHandler(h)
	slot := s.allocSlot()
	s.push(item{time: t, seq: s.nextSeq(), h: h, kind: kind, owner: owner, slot: slot})
	return EventRef{slot: slot + 1, gen: s.slots[slot].gen}
}

// ScheduleCancellable schedules a cancellable typed event delay time units
// from now.
func (s *Simulator) ScheduleCancellable(delay float64, h HandlerID, kind, owner int32) EventRef {
	if delay < 0 {
		panic(fmt.Sprintf("des: Schedule with negative delay %v", delay))
	}
	return s.ScheduleCancellableAt(s.now+delay, h, kind, owner)
}

// CancelRef marks the referenced typed event so that it will not fire.
// Cancelling the zero EventRef, or a reference to an event that already fired
// (or was already cancelled and discarded), is a no-op.
func (s *Simulator) CancelRef(ref EventRef) {
	if ref.slot == 0 {
		return
	}
	idx := ref.slot - 1
	if int(idx) >= len(s.slots) {
		return
	}
	sl := &s.slots[idx]
	if sl.gen != ref.gen {
		return // slot was recycled: the event already fired or was discarded
	}
	sl.cancelled = true
}

// RunUntil executes events in order until the calendar is empty or the next
// event would fire strictly after horizon. The clock is advanced to horizon
// when the run ends (so time-weighted statistics can be closed at a
// well-defined instant). Each
// event is popped exactly once: liveHead discards cancelled heads and leaves
// the next live event in place, and fire consumes it directly.
func (s *Simulator) RunUntil(horizon float64) {
	for {
		it, src := s.liveHead()
		if it == nil {
			break
		}
		if it.time > horizon {
			s.now = horizon
			return
		}
		s.fire(src)
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// liveHead returns the earliest pending live event and its source (heapSource
// for the heap, otherwise the channel index), discarding cancelled heap heads
// and recycling their slots on the way. It returns (nil, _) when the calendar
// is empty. Channel events are never cancellable, so channel heads are always
// live.
func (s *Simulator) liveHead() (*item, int) {
	var best *item
	src := heapSource
	if s.heapLive() {
		best = &s.heap[0]
	}
	for i := range s.channels {
		c := &s.channels[i]
		if c.n > 0 {
			head := &c.buf[c.head]
			if best == nil || less(head, best) {
				best, src = head, i
			}
		}
	}
	return best, src
}

// heapSource marks the heap as the source of a fired event in liveHead/fire.
const heapSource = -1

// heapLive discards cancelled events from the head of the heap and reports
// whether a live heap head remains.
func (s *Simulator) heapLive() bool {
	for len(s.heap) > 0 {
		it := &s.heap[0]
		if it.slot >= 0 && s.slots[it.slot].cancelled {
			dead := s.popHead()
			s.freeSlot(dead.slot)
			continue
		}
		return true
	}
	return false
}

// fire pops the head event of the given source (which the caller has
// established is live and globally earliest via liveHead), advances the clock
// and dispatches it.
func (s *Simulator) fire(src int) {
	var it item
	if src == heapSource {
		it = s.popHead()
	} else {
		it = s.channels[src].pop()
	}
	s.now = it.time
	if it.slot >= 0 {
		s.freeSlot(it.slot)
	}
	s.handlers[it.h].HandleEvent(it.kind, it.owner)
}

func (s *Simulator) nextSeq() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// allocSlot returns a fresh cancellation slot index, recycling from the free
// list when possible.
func (s *Simulator) allocSlot() int32 {
	if n := len(s.slotFree); n > 0 {
		idx := s.slotFree[n-1]
		s.slotFree = s.slotFree[:n-1]
		return idx
	}
	s.slots = append(s.slots, cancelSlot{})
	return int32(len(s.slots) - 1)
}

// freeSlot recycles a cancellation slot; bumping the generation invalidates
// any EventRef still pointing at it.
func (s *Simulator) freeSlot(idx int32) {
	sl := &s.slots[idx]
	sl.gen++
	sl.cancelled = false
	s.slotFree = append(s.slotFree, idx)
}

// push inserts a calendar entry into the 4-ary heap.
func (s *Simulator) push(it item) {
	s.heap = append(s.heap, it)
	// Sift up, moving the hole rather than swapping.
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !less(&it, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

// popHead removes and returns the minimum entry.
func (s *Simulator) popHead() item {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	it := h[n]
	s.heap = h[:n]
	if n == 0 {
		return top
	}
	h = s.heap
	// Sift the former last element down from the root.
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(&h[c], &h[best]) {
				best = c
			}
		}
		if !less(&h[best], &it) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = it
	return top
}
