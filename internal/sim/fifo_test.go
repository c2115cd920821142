package sim

import "testing"

func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	var f FIFO[int]
	next := 0
	for i := 0; i < 1000; i++ {
		f.Push(i)
		// Pop two of every three pushed, so the queue grows slowly: the ring
		// wraps many times and doubles, each time from a different head.
		if i%3 != 0 {
			if got := f.Pop(); got != next {
				t.Fatalf("pop %d = %d, want %d", next, got, next)
			}
			next++
		}
	}
	for f.Len() > 0 {
		if got := f.Pop(); got != next {
			t.Fatalf("pop %d = %d, want %d", next, got, next)
		}
		next++
	}
	if next != 1000 {
		t.Fatalf("popped %d items, want 1000", next)
	}
}

// A queue that never runs empty used to keep its whole popped prefix: the
// backing array grew with the number of items ever pushed. The ring stays
// within a small multiple of the peak length.
func TestFIFOCapBoundedWhenNeverEmpty(t *testing.T) {
	const depth = 5
	var f FIFO[int]
	for i := 0; i < depth; i++ {
		f.Push(i)
	}
	for i := depth; i < 1_000_000; i++ {
		f.Push(i)
		if got := f.Pop(); got != i-depth {
			t.Fatalf("pop = %d, want %d", got, i-depth)
		}
	}
	if f.Len() != depth {
		t.Fatalf("len = %d, want %d", f.Len(), depth)
	}
	if c := len(f.buf); c > 4*(depth+1) {
		t.Fatalf("cap = %d after 1M push/pop at depth %d: the popped prefix is not reclaimed", c, depth)
	}
}

// Mailbox queues items and waiters in FIFOs, so the same bound holds for
// a mailbox that always has a message waiting.
func TestMailboxCapBoundedWhenNeverEmpty(t *testing.T) {
	var m Mailbox[int]
	m.Send(-1)
	for i := 0; i < 1_000_000; i++ {
		m.Send(i)
		if _, ok := m.TryRecv(); !ok {
			t.Fatal("TryRecv on a non-empty mailbox failed")
		}
	}
	if c := len(m.items.buf); c > 8 {
		t.Fatalf("cap = %d after 1M send/recv at depth 1", c)
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	for _, used := range []bool{false, true} {
		var f FIFO[int]
		if used {
			f.Push(1)
			f.Pop()
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pop on an empty FIFO (used before: %v) did not panic", used)
				}
			}()
			f.Pop()
		}()
	}
}
