package sim

// Backlog is a pipeline stage's queue (DESIGN.md §1.3): items booked for
// times that never decrease, handed in booking order to one callback
// bound at NewBacklog. Booking draws the engine's sequence number as
// ScheduleAt does, and only the head item has an event in the heap: when
// it fires, the next is armed under its own stored (time, sequence), so
// items fire where events scheduled in their stead would and a burst
// costs the heap one entry.
//
// The items live in a ring that doubles when full, so its backing array
// stays within twice the peak length however long the backlog runs
// without emptying. Not safe for concurrent use; a backlog belongs to
// its engine, like every simulated component.
type Backlog[T any] struct {
	eng  *Engine
	fn   func(T)
	fire func()      // pop, bound once
	buf  []booked[T] // ring; its length is zero or a power of two
	head int         // index of the oldest item
	n    int         // items booked, not yet fired
}

// booked is one backlog item with the place in the event order it was
// given at booking.
type booked[T any] struct {
	at  Time
	seq uint64
	v   T
}

// NewBacklog returns an empty backlog on eng that hands each item to fn
// at its time.
func NewBacklog[T any](eng *Engine, fn func(T)) *Backlog[T] {
	b := &Backlog[T]{eng: eng, fn: fn}
	b.fire = b.pop
	return b
}

// PushAt books v for absolute time t, clamped to now like ScheduleAt's.
// It panics if t is earlier than the item booked before it, unless that
// one has fired.
func (b *Backlog[T]) PushAt(t Time, v T) {
	t, seq := b.eng.book(t)
	if b.n > 0 && t < b.buf[(b.head+b.n-1)&(len(b.buf)-1)].at {
		panic("sim: Backlog item booked before the item ahead of it")
	}
	if b.n == len(b.buf) {
		b.grow()
	}
	b.buf[(b.head+b.n)&(len(b.buf)-1)] = booked[T]{at: t, seq: seq, v: v}
	b.n++
	if b.n == 1 {
		b.eng.arm(t, seq, b.fire)
	}
}

// grow doubles the ring, unwrapping the items to its start.
func (b *Backlog[T]) grow() {
	size := max(2*len(b.buf), 8)
	buf := make([]booked[T], size)
	k := copy(buf, b.buf[b.head:])
	copy(buf[k:], b.buf[:b.head])
	b.buf, b.head = buf, 0
}

// pop is the head's event: it arms the next item, then hands the head
// to fn.
func (b *Backlog[T]) pop() {
	v := b.buf[b.head].v
	b.buf[b.head] = booked[T]{} // release for GC
	b.head = (b.head + 1) & (len(b.buf) - 1)
	b.n--
	if b.n > 0 {
		next := &b.buf[b.head]
		b.eng.arm(next.at, next.seq, b.fire)
	}
	b.fn(v)
}

// Len reports the number of items booked and not yet fired.
func (b *Backlog[T]) Len() int { return b.n }
