package roce

import (
	"testing"

	"strom/internal/fabric"
	"strom/internal/sim"
)

// readOnce posts one READ of n bytes on p's QP 1 and runs it to
// completion, acknowledging every chunk as it arrives.
func readOnce(t *testing.T, p *pair, n int) {
	t.Helper()
	done := false
	p.eng.Schedule(0, func() {
		_, err := p.a.PostRead(1, 0, 0, n, func(off int, chunk []byte, ack func()) { ack() }, func(err error) {
			if err != nil {
				t.Error(err)
			}
			done = true
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	p.eng.Run()
	if !done {
		t.Fatal("READ never completed")
	}
}

// TestReadRecyclesPendingEntry: a READ's request entry goes back to the
// stack's free list when its response retires it, and so does every
// entry a QP reset flushes. Once warm, READ round trips neither take
// entries off the free list for good nor allocate fresh ones.
func TestReadRecyclesPendingEntry(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	readOnce(t, p, 512)
	free := len(p.a.ppFree)
	if free == 0 {
		t.Fatal("the READ's pending entry never returned to the free list")
	}
	for i := 0; i < 10; i++ {
		readOnce(t, p, 3*p.a.cfg.MTUPayload)
	}
	if got := len(p.a.ppFree); got != free {
		t.Errorf("free list holds %d entries after 10 READs, want %d", got, free)
	}

	// A reset flushes a READ and a WRITE still waiting for their answers:
	// both entries return to the free list.
	p.eng.Schedule(0, func() {
		sink := func(off int, chunk []byte, ack func()) { ack() }
		if _, err := p.a.PostRead(1, 0, 0, 64, sink, nil); err != nil {
			t.Fatal(err)
		}
		if err := p.a.PostWrite(1, 0, make([]byte, 64), nil); err != nil {
			t.Fatal(err)
		}
		if err := p.a.ResetQP(1); err != nil {
			t.Fatal(err)
		}
	})
	p.eng.Run()
	if got := len(p.a.ppFree); got != max(free, 2) {
		t.Errorf("free list holds %d entries after a reset flushed two, want %d", got, max(free, 2))
	}
}

// reconnect resets and reconnects both ends of the pair's QP.
func (p *pair) reconnect(t *testing.T) {
	t.Helper()
	for _, err := range []error{p.b.ResetQP(2), p.a.ResetQP(1), p.b.ReconnectQP(2), p.a.ReconnectQP(1)} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlushedReadLateAckSparesNextRead is the fire drill for recycling
// Multi-Queue elements. A READ is flushed by a QP reset while its sink
// still owes the acknowledgement of a chunk (its DMA write has not
// landed). The next READ must not get that element: the late
// acknowledgement would count against the new READ's chunks and complete
// it before its own data has landed.
func TestFlushedReadLateAckSparesNextRead(t *testing.T) {
	cfg := Config10G()
	p := newPair(t, 1, cfg, fabric.DirectCable10G())
	readOnce(t, p, 64) // an element on the free list, as in any warm stack
	p.hb.pieceGap, p.hb.pieceLen = 20*sim.Microsecond, cfg.MTUPayload
	var oldAcks, newAcks []func()
	var oldErr error
	newDone := 0
	p.eng.Schedule(0, func() {
		_, err := p.a.PostRead(1, 0, 0, 4*cfg.MTUPayload, func(off int, chunk []byte, ack func()) {
			oldAcks = append(oldAcks, ack)
			if len(oldAcks) > 1 {
				return
			}
			// First chunk in, its DMA write still on its way: reset the QP and
			// post the next READ.
			p.eng.Schedule(0, func() {
				p.reconnect(t)
				p.hb.pieceGap = 0
				_, err := p.a.PostRead(1, 0, 0, 64, func(off int, chunk []byte, ack func()) {
					newAcks = append(newAcks, ack)
				}, func(err error) {
					if err != nil {
						t.Errorf("next READ: %v", err)
					}
					newDone++
				})
				if err != nil {
					t.Error(err)
				}
			})
		}, func(err error) { oldErr = err })
		if err != nil {
			t.Fatal(err)
		}
	})
	p.eng.Run()
	if oldErr == nil || len(oldAcks) != 1 {
		t.Fatalf("flushed READ: err %v after %d chunks, want a flush after 1", oldErr, len(oldAcks))
	}
	if len(newAcks) != 1 || newDone != 0 {
		t.Fatalf("next READ: %d chunks in, %d completions, want 1 chunk awaiting its ack", len(newAcks), newDone)
	}
	oldAcks[0]() // the flushed READ's DMA write lands
	if newDone != 0 {
		t.Fatal("the flushed READ's late acknowledgement completed the next READ")
	}
	newAcks[0]()
	if newDone != 1 {
		t.Errorf("next READ completed %d times, want once", newDone)
	}
}

// TestResetCancelsArmedTimer is the fire drill for the per-QP timer: the
// snapshot of the QP's progress lives beside the one pending expiry, so a
// reset between a timer's arming and its expiry must cancel it. A stale
// expiry would check the new timer's snapshot and take a timeout a whole
// interval early.
func TestResetCancelsArmedTimer(t *testing.T) {
	cfg := Config10G()
	rto := cfg.RetransTimeout
	p := newPair(t, 1, cfg, fabric.DirectCable10G())
	p.link.SetOfflineAtoB(true) // nothing A sends is ever answered
	post := func() {
		if err := p.a.PostWrite(1, 0, make([]byte, 64), nil); err != nil {
			t.Error(err)
		}
	}
	p.eng.Schedule(0, post)
	p.eng.Schedule(rto/2, func() {
		p.reconnect(t)
		post()
	})
	// The WRITE posted at rto/2 arms at rto/2, sees its own frame leave by
	// 3rto/2 and so times out first at 5rto/2.
	var early, onTime uint64
	p.eng.Schedule(9*rto/4, func() { early = p.a.Stats().Timeouts })
	p.eng.Schedule(11*rto/4, func() {
		onTime = p.a.Stats().Timeouts
		p.a.ResetQP(1)
	})
	p.eng.Run()
	if early != 0 || onTime != 1 {
		t.Errorf("timeouts: %d by 9/4 RTO, %d by 11/4 RTO; want 0 and 1", early, onTime)
	}
}
