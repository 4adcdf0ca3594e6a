// Package ringbuf provides a head-indexed growable ring buffer used for the
// station FIFO queues of the equivalent queueing network (internal/queuenet).
// Plain slices whose dequeue does an O(n) copy would not do: at heavy traffic (rho close to 1,
// the regime the paper's bounds are about) queue lengths grow like
// 1/(1-rho), which makes dequeue cost quadratic in the backlog. The ring
// dequeues in O(1), never copies on pop, and only allocates when it doubles
// its power-of-two capacity, so a steady-state service loop is
// allocation-free.
package ringbuf

// Ring is a FIFO ring buffer with O(1) push and pop. The zero value is an
// empty ring ready for use. Capacity grows by doubling and is always a power
// of two so positions reduce with a mask instead of a modulo.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of buffered elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PopFront removes and returns the head element. It panics on an empty ring.
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("ringbuf: PopFront on empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // release the reference for the GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the capacity (starting at 8) and linearises the contents so
// head restarts at zero.
func (r *Ring[T]) grow() {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = 8
	}
	nb := make([]T, newCap)
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&mask]
	}
	r.buf = nb
	r.head = 0
}
