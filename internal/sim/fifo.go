package sim

// FIFO is an amortized-zero-allocation queue. It backs the simulator's
// drain-queue pattern: hot paths that previously scheduled a fresh
// closure per item (capturing the item) instead push the item here and
// schedule one pre-bound drain callback, which pops in FIFO order.
// This is sound whenever the completion timestamps of a queue's items
// are non-decreasing in push order (serializer reservations plus a
// constant latency, as in the NIC TX/RX pipelines and fabric wires):
// the engine then fires the drain events in exactly push order.
//
// The queue is a ring that doubles when full, so its backing array stays
// within twice the peak length however long the queue runs without
// emptying, and nothing is ever moved except on growth.
//
// The zero FIFO is ready to use. Not safe for concurrent use; each
// FIFO belongs to one engine, like every simulated component.
type FIFO[T any] struct {
	buf  []T // ring; its length is zero or a power of two
	head int // index of the oldest item
	n    int // items queued
}

// Push appends v to the tail.
func (f *FIFO[T]) Push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// grow doubles the ring, unwrapping the items to its start.
func (f *FIFO[T]) grow() {
	size := 2 * len(f.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}

// Pop removes and returns the head item. It panics on an empty FIFO —
// a drain callback firing without a matching push is a scheduling bug.
func (f *FIFO[T]) Pop() T {
	if f.n == 0 {
		panic("sim: Pop on an empty FIFO")
	}
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero // release for GC
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// Len reports the number of queued items.
func (f *FIFO[T]) Len() int { return f.n }
