package sim

import (
	"slices"
	"testing"

	"strom/internal/raceflag"
)

func TestBacklogOrderAcrossWrapAndGrowth(t *testing.T) {
	e := NewEngine(1)
	next := 0
	b := NewBacklog(e, func(v int) {
		if v != next {
			t.Fatalf("fired %d, want %d", v, next)
		}
		next++
	})
	for i := 0; i < 1000; i++ {
		b.PushAt(Time(i)*Time(Nanosecond), i)
		// Fire two of every three booked, so the backlog grows slowly: the
		// ring wraps many times and doubles, each time from a different head.
		if i%3 != 0 {
			e.RunUntil(Time(next) * Time(Nanosecond))
		}
	}
	e.Run()
	if next != 1000 || b.Len() != 0 {
		t.Fatalf("fired %d items with %d left, want 1000 and 0", next, b.Len())
	}
}

// A backlog that never runs empty keeps its ring within a small multiple
// of the peak length, not of the items ever booked.
func TestBacklogCapBoundedWhenNeverEmpty(t *testing.T) {
	const depth = 5
	e := NewEngine(1)
	fired := 0
	b := NewBacklog(e, func(v int) {
		if v != fired {
			t.Fatalf("fired %d, want %d", v, fired)
		}
		fired++
	})
	for i := 0; i < depth; i++ {
		b.PushAt(Time(i)*Time(Nanosecond), i)
	}
	for i := depth; i < 1_000_000; i++ {
		b.PushAt(Time(i)*Time(Nanosecond), i)
		e.RunUntil(Time(i-depth) * Time(Nanosecond))
	}
	if b.Len() != depth {
		t.Fatalf("len = %d, want %d", b.Len(), depth)
	}
	if c := len(b.buf); c > 4*(depth+1) {
		t.Fatalf("cap = %d after 1M push/fire at depth %d: fired items are not reclaimed", c, depth)
	}
}

// An item booked before the one ahead of it would fire out of order: the
// backlog refuses it. A time in the past is clamped to now first, as
// ScheduleAt clamps it, so booking into the past of a drained backlog is
// fine.
func TestBacklogOutOfOrderBookingPanics(t *testing.T) {
	e := NewEngine(1)
	b := NewBacklog(e, func(int) {})
	b.PushAt(10*Time(Nanosecond), 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("booking before the pending item did not panic")
			}
		}()
		b.PushAt(5*Time(Nanosecond), 2)
	}()
	e.Run()
	b.PushAt(5*Time(Nanosecond), 3) // clamped to now, 10 ns
	if e.Run() != 10*Time(Nanosecond) {
		t.Errorf("past booking fired at %v, want 10ns", e.Now())
	}
}

// A burst booked at one instant holds one heap entry however deep it is,
// and its items still fire in booking order among the plain events
// booked at the same instants — before, between and after them.
func TestBacklogArmsOnlyItsHead(t *testing.T) {
	const n = 1 << 16
	t1, t2 := Time(Microsecond), 2*Time(Microsecond)
	e := NewEngine(1)
	var got []int
	b := NewBacklog(e, func(v int) {
		got = append(got, v)
		if v == 0 {
			// Booked after every item: fires after the last one at t1.
			e.ScheduleAt(t1, func() { got = append(got, -1) })
		}
	})
	var want []int
	for i := 0; i < n; i++ {
		b.PushAt(t1, i)
		want = append(want, i)
	}
	if queued(e) != 1 {
		t.Fatalf("%d items at one instant hold %d heap entries, want 1", n, queued(e))
	}
	want = append(want, -1)
	plain := 0
	for i := n; i < 2*n; i++ {
		if i%4096 == 0 {
			e.ScheduleAt(t2, func() { got = append(got, -i) })
			want = append(want, -i)
			plain++
		}
		b.PushAt(t2, i)
		want = append(want, i)
	}
	if queued(e) != 1+plain {
		t.Fatalf("heaps hold %d entries, want the head and %d plain events", queued(e), plain)
	}
	e.Run()
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("fire order diverges at %d: %d, want %d", i, got[i], want[i])
			}
		}
		t.Fatalf("fired %d, want %d", len(got), len(want))
	}
}

// TestAllocsBacklog: once the ring and the event free list are warm,
// booking an item and firing it allocate nothing.
func TestAllocsBacklog(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	e := NewEngine(1)
	b := NewBacklog(e, func(int) {})
	for i := 0; i < 64; i++ {
		b.PushAt(Time(i)*Time(Nanosecond), i)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		b.PushAt(e.Now().Add(Nanosecond), 1)
		b.PushAt(e.Now().Add(Nanosecond), 2)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state push/fire allocates %.1f times", allocs)
	}
}
