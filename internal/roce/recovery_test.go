package roce

import (
	"bytes"
	"errors"
	"testing"

	"strom/internal/fabric"
	"strom/internal/packet"
	"strom/internal/sim"
)

// shortRetryConfig makes retry exhaustion fast so failure tests stay
// cheap: 5 µs timer, 3 retries => the QP gives up ~20 µs after silence.
func shortRetryConfig() Config {
	cfg := Config10G()
	cfg.RetransTimeout = 5 * sim.Microsecond
	cfg.MaxRetries = 3
	return cfg
}

// reconnectBothEnds resets and reconnects QP 1 on A and QP 2 on B, the
// coordinated recovery handshake.
func reconnectBothEnds(t *testing.T, p *pair) {
	t.Helper()
	if err := p.b.ResetQP(2); err != nil {
		t.Fatal(err)
	}
	if err := p.a.ResetQP(1); err != nil {
		t.Fatal(err)
	}
	if err := p.b.ReconnectQP(2); err != nil {
		t.Fatal(err)
	}
	if err := p.a.ReconnectQP(1); err != nil {
		t.Fatal(err)
	}
}

// TestRetryExhaustionFlushesAllOps is the regression test for the
// flush-everything contract: when the retry budget runs out, EVERY
// outstanding operation on the QP — not just the one that timed out —
// must complete with a typed error, the QP must land in ERROR, and the
// retransmission timer must be gone.
func TestRetryExhaustionFlushesAllOps(t *testing.T) {
	p := newPair(t, 1, shortRetryConfig(), fabric.DirectCable10G())
	p.link.SetOfflineAtoB(true)
	const ops = 3
	errs := make([]error, ops)
	counts := make([]int, ops)
	p.eng.Schedule(0, func() {
		for i := 0; i < ops; i++ {
			i := i
			if err := p.a.PostWrite(1, uint64(i*4096), []byte{byte(i)}, func(err error) {
				errs[i] = err
				counts[i]++
			}); err != nil {
				t.Fatalf("post %d: %v", i, err)
			}
		}
	})
	p.eng.Run()
	for i := 0; i < ops; i++ {
		if counts[i] != 1 {
			t.Fatalf("op %d completed %d times, want exactly once", i, counts[i])
		}
		if !errors.Is(errs[i], ErrRetryExceeded) {
			t.Errorf("op %d: err = %v, want ErrRetryExceeded", i, errs[i])
		}
		if !errors.Is(errs[i], ErrQPError) {
			t.Errorf("op %d: err = %v, want ErrQPError wrap", i, errs[i])
		}
	}
	if st, _ := p.a.QPStateOf(1); st != QPStateError {
		t.Errorf("state = %v, want ERROR", st)
	}
	if p.a.Stats().QPErrors != 1 {
		t.Errorf("QPErrors = %d", p.a.Stats().QPErrors)
	}
	if p.a.timers[1].ev.Pending() {
		t.Error("retransmission timer still armed after flush")
	}
	if len(p.a.st.qps[1].pending) != 0 || p.a.mq.len(1) != 0 {
		t.Error("reliability state not flushed")
	}

	// Posts are rejected while in ERROR.
	if err := p.a.PostWrite(1, 0, []byte{9}, nil); !errors.Is(err, ErrQPError) {
		t.Errorf("post in ERROR: err = %v, want ErrQPError", err)
	}

	// Reset + reconnect both ends restores service with fresh PSNs.
	p.link.SetOfflineAtoB(false)
	reconnectBothEnds(t, p)
	if got := p.a.st.qps[1].nextPSN; got != 0 {
		t.Errorf("nextPSN after reconnect = %d, want 0", got)
	}
	if got := liveReads(p.a.st.qps[1].recentRds); got != 0 {
		t.Errorf("dup-read cache has %d entries after reset, want 0", got)
	}
	data := []byte("post-recovery payload")
	var recovered bool
	p.eng.Schedule(0, func() {
		if err := p.a.PostWrite(1, 64, data, func(err error) {
			if err != nil {
				t.Errorf("post-recovery write: %v", err)
			}
			recovered = true
		}); err != nil {
			t.Fatal(err)
		}
	})
	p.eng.Run()
	if !recovered {
		t.Fatal("write after reconnect never completed")
	}
	if !bytes.Equal(p.hb.buf[64:64+len(data)], data) {
		t.Error("post-recovery data not written")
	}
}

// TestDeadlineExpiryUnderBlackhole verifies that a deadline-bounded verb
// completes early with ErrDeadlineExceeded — long before retry
// exhaustion — and still completes exactly once when the transport later
// flushes the QP.
func TestDeadlineExpiryUnderBlackhole(t *testing.T) {
	cfg := Config10G()
	cfg.RetransTimeout = 50 * sim.Microsecond
	cfg.MaxRetries = 3
	p := newPair(t, 1, cfg, fabric.DirectCable10G())
	p.link.SetOfflineAtoB(true)
	var got error
	count := 0
	var at sim.Time
	p.eng.Schedule(0, func() {
		m, err := p.a.PostWriteStream(1, 0, 0, 3, []byte{1, 2, 3}, func(err error) {
			got = err
			count++
			at = p.eng.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		p.eng.ScheduleAt(p.eng.Now().Add(20*sim.Microsecond), m.Expire)
	})
	p.eng.Run()
	if count != 1 {
		t.Fatalf("completed %d times, want exactly once", count)
	}
	if !errors.Is(got, sim.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded", got)
	}
	if us := sim.Duration(at).Microseconds(); us < 19 || us > 21 {
		t.Errorf("completed at %.1f us, want ~20 us (the deadline, not retry exhaustion)", us)
	}
	if p.a.Stats().DeadlineExpired != 1 {
		t.Errorf("DeadlineExpired = %d", p.a.Stats().DeadlineExpired)
	}
}

// failingReadHandler NAKs every READ: a remote access fault.
type failingReadHandler struct{ *memHandler }

func (h *failingReadHandler) HandleReadRequest(qpn uint32, va uint64, n int, deliver func([]byte, error)) {
	h.eng.Schedule(h.readDelay, func() { deliver(nil, errors.New("remote access fault")) })
}

// TestFatalReadNakMovesToError: a NAK against a READ is a remote access
// error, which is transport-fatal — the QP moves to ERROR (unlike RPC
// NAKs, which stay per-operation; see TestRPCNakStaysPerOp).
func TestFatalReadNakMovesToError(t *testing.T) {
	eng := sim.NewEngine(1)
	ha := newMemHandler(eng, 1<<20)
	hb := &failingReadHandler{newMemHandler(eng, 1<<20)}
	idA := Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.AddrOf(10, 0, 0, 1)}
	idB := Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.AddrOf(10, 0, 0, 2)}
	var link *fabric.Link
	a := NewStack(eng, Config10G(), idA, ha, func(f []byte) { link.SendFromA(f) })
	b := NewStack(eng, Config10G(), idB, hb, func(f []byte) { link.SendFromB(f) })
	link = fabric.NewLink(eng, fabric.DirectCable10G(), a, b)
	if err := a.CreateQP(1, idB, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateQP(2, idA, 1); err != nil {
		t.Fatal(err)
	}
	var got error
	count := 0
	eng.Schedule(0, func() {
		_, err := a.PostRead(1, 0, 0, 512, func(off int, chunk []byte, ack func()) { ack() }, func(err error) {
			got = err
			count++
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	if count != 1 {
		t.Fatalf("completed %d times", count)
	}
	if !errors.Is(got, ErrRemoteInvalid) || !errors.Is(got, ErrQPError) {
		t.Errorf("err = %v, want ErrQPError wrapping ErrRemoteInvalid", got)
	}
	if st, _ := a.QPStateOf(1); st != QPStateError {
		t.Errorf("state = %v, want ERROR", st)
	}
}

// TestRPCNakStaysPerOp: an application-level NAK (no kernel matched the
// RPC) fails only that operation; the QP stays in RTS and later verbs
// succeed.
func TestRPCNakStaysPerOp(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	p.hb.rpcErr = errors.New("no kernel")
	var rpcErr error
	p.eng.Schedule(0, func() {
		if _, err := p.a.PostRPC(1, 7, []byte("params"), func(err error) { rpcErr = err }); err != nil {
			t.Fatal(err)
		}
	})
	p.eng.Run()
	if !errors.Is(rpcErr, ErrRemoteInvalid) {
		t.Errorf("rpc err = %v, want ErrRemoteInvalid", rpcErr)
	}
	if errors.Is(rpcErr, ErrQPError) {
		t.Error("RPC NAK must not be wrapped in ErrQPError (non-fatal)")
	}
	if st, _ := p.a.QPStateOf(1); st != QPStateRTS {
		t.Fatalf("state = %v, want RTS after RPC NAK", st)
	}
	p.hb.rpcErr = nil
	var ok bool
	p.eng.Schedule(0, func() {
		p.a.PostWrite(1, 0, []byte{1}, func(err error) { ok = err == nil })
	})
	p.eng.Run()
	if !ok {
		t.Error("write after RPC NAK failed — QP was torn down")
	}
}

// TestResetFlushesInFlight: an explicit ResetQP mid-transfer completes
// the outstanding verb with ErrQPError and clears all reliability state.
func TestResetFlushesInFlight(t *testing.T) {
	p := newPair(t, 1, shortRetryConfig(), fabric.DirectCable10G())
	p.link.SetOfflineAtoB(true)
	var got error
	count := 0
	p.eng.Schedule(0, func() {
		if err := p.a.PostWrite(1, 0, []byte("doomed"), func(err error) {
			got = err
			count++
		}); err != nil {
			t.Fatal(err)
		}
	})
	p.eng.ScheduleAt(sim.Time(8*sim.Microsecond), func() {
		if err := p.a.ResetQP(1); err != nil {
			t.Errorf("reset: %v", err)
		}
	})
	p.eng.RunUntil(sim.Time(10 * sim.Microsecond))
	if count != 1 || !errors.Is(got, ErrQPError) {
		t.Fatalf("count=%d err=%v, want one ErrQPError completion", count, got)
	}
	st := &p.a.st.qps[1]
	if st.state != QPStateReset || st.nextPSN != 0 || st.ePSN != 0 || len(st.pending) != 0 || st.retries != 0 {
		t.Errorf("reliability state not cleared: %+v", st)
	}
	if p.a.Stats().QPResets != 1 {
		t.Errorf("QPResets = %d", p.a.Stats().QPResets)
	}
	// RESET rejects posts until reconnected.
	if err := p.a.PostWrite(1, 0, []byte{1}, nil); !errors.Is(err, ErrQPError) {
		t.Errorf("post in RESET: err = %v", err)
	}
	// Reconnect requires RESET: reconnecting an RTS QP fails.
	if err := p.a.ReconnectQP(1); err != nil {
		t.Fatal(err)
	}
	if err := p.a.ReconnectQP(1); !errors.Is(err, ErrQPError) {
		t.Errorf("double reconnect: err = %v, want ErrQPError", err)
	}
}

// TestFreezeRestart models a machine crash at the stack level: Freeze
// flushes every QP with a typed error and drops all traffic; Restart
// brings the QPs back in RESET for reconnection.
func TestFreezeRestart(t *testing.T) {
	p := newPair(t, 1, shortRetryConfig(), fabric.DirectCable10G())
	var got error
	count := 0
	p.eng.Schedule(0, func() {
		// A large write that cannot finish before the freeze.
		if err := p.a.PostWrite(1, 0, make([]byte, 64<<10), func(err error) {
			got = err
			count++
		}); err != nil {
			t.Fatal(err)
		}
	})
	p.eng.ScheduleAt(sim.Time(2*sim.Microsecond), p.a.Freeze)
	p.eng.Run()
	if count != 1 || !errors.Is(got, ErrQPError) {
		t.Fatalf("count=%d err=%v", count, got)
	}
	if !p.a.frozen {
		t.Fatal("stack not frozen")
	}
	if err := p.a.PostWrite(1, 0, []byte{1}, nil); !errors.Is(err, ErrQPError) {
		t.Errorf("post while frozen: err = %v", err)
	}
	if err := p.a.ResetQP(1); !errors.Is(err, ErrQPError) {
		t.Errorf("reset while frozen: err = %v", err)
	}

	p.a.Restart()
	if p.a.frozen {
		t.Fatal("stack still frozen after restart")
	}
	if st, _ := p.a.QPStateOf(1); st != QPStateReset {
		t.Fatalf("state after restart = %v, want RESET", st)
	}
	// B's end never heard about the crash; the coordinated reconnect
	// resets it too, so the PSN spaces line up again.
	reconnectBothEnds(t, p)
	data := []byte("after restart")
	var ok bool
	p.eng.Schedule(0, func() {
		p.a.PostWrite(1, 128, data, func(err error) { ok = err == nil })
	})
	p.eng.Run()
	if !ok {
		t.Fatal("write after restart failed")
	}
	if !bytes.Equal(p.hb.buf[128:128+len(data)], data) {
		t.Error("data not written after restart")
	}
}

// TestDeadlineLeavesPSNSpaceIntact: a deadline-canceled verb's frames
// stay in the go-back-N window, so a later verb on the same QP still
// completes and the responder sees a contiguous PSN sequence.
func TestDeadlineLeavesPSNSpaceIntact(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	// Drop everything briefly so the first write misses its deadline,
	// then heal the link; retransmission must deliver both writes.
	p.link.SetOfflineAtoB(true)
	p.eng.ScheduleAt(sim.Time(100*sim.Microsecond), func() {
		p.link.SetOfflineAtoB(false)
	})
	first := []byte("canceled but delivered")
	second := []byte("follows the canceled one")
	var firstErr, secondErr error
	p.eng.Schedule(0, func() {
		m, err := p.a.PostWriteStream(1, 0, 0, len(first), first, func(err error) { firstErr = err })
		if err != nil {
			t.Fatal(err)
		}
		p.eng.ScheduleAt(p.eng.Now().Add(20*sim.Microsecond), m.Expire)
		if err := p.a.PostWrite(1, 4096, second, func(err error) { secondErr = err }); err != nil {
			t.Fatal(err)
		}
	})
	p.eng.Run()
	if !errors.Is(firstErr, sim.ErrDeadlineExceeded) {
		t.Errorf("first err = %v, want ErrDeadlineExceeded", firstErr)
	}
	if secondErr != nil {
		t.Errorf("second err = %v, want success", secondErr)
	}
	if !bytes.Equal(p.hb.buf[4096:4096+len(second)], second) {
		t.Error("second write not delivered")
	}
	if !bytes.Equal(p.hb.buf[:len(first)], first) {
		t.Error("canceled write's frames never drained to the responder")
	}
	if st, _ := p.a.QPStateOf(1); st != QPStateRTS {
		t.Errorf("state = %v, want RTS", st)
	}
}
