package core_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/pcie"
	"strom/internal/raceflag"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/testrig"
)

// The tests below drive a 64 KiB verb through the whole NIC on the 100 G
// pair, where the payload takes 5 us to cross PCIe and its 47 segments
// leave as they arrive: a doorbell at 0.3 us, the first chunk at about
// 1.55 us, the last at about 6.5 us.

// fillA puts a seeded pattern at the start of A's buffer.
func fillA(t *testing.T, pair *testrig.Pair, n int) []byte {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(42)).Read(data)
	if err := pair.A.Memory().WriteVirt(pair.BufA.Base(), data); err != nil {
		t.Fatal(err)
	}
	return data
}

// atB reads n bytes of B's buffer at off.
func atB(t *testing.T, pair *testrig.Pair, off, n int) []byte {
	t.Helper()
	got, err := pair.B.Memory().ReadVirt(pair.BufB.Base()+hostmem.Addr(off), n)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestWriteCutsThrough: the first segments of a 64 KiB WRITE are in remote
// memory before its last bytes have crossed PCIe, and the verb completes
// well inside the store-and-forward time (DMA, then wire).
func TestWriteCutsThrough(t *testing.T) {
	pair := bulkPair(t)
	data := fillA(t, pair, bulkSize)
	var doneAt sim.Time
	pair.Eng.Schedule(0, func() {
		pair.A.PostWrite(testrig.QPA, uint64(pair.BufA.Base()), uint64(pair.BufB.Base()), bulkSize, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			doneAt = pair.Eng.Now()
		})
	})
	// At 5 us each machine looks at what it owns: B's memory, A's DMA.
	mtu := pair.A.Config().Roce.MTUPayload
	pair.EngB.ScheduleAt(sim.Time(5*sim.Microsecond), func() {
		if !bytes.Equal(atB(t, pair, 0, 8*mtu), data[:8*mtu]) {
			t.Error("at 5 us, with the payload still crossing PCIe, the first 8 segments are not in remote memory")
		}
	})
	pair.Eng.ScheduleAt(sim.Time(5*sim.Microsecond), func() {
		if st := pair.A.DMA().Stats(); st.ReadCommands != 1 || st.ReadBytes != bulkSize {
			t.Errorf("payload fetched with %d commands / %d bytes, want one command", st.ReadCommands, st.ReadBytes)
		}
	})
	pair.Run()
	if !bytes.Equal(atB(t, pair, 0, bulkSize), data) {
		t.Error("remote bytes differ")
	}
	// Store-and-forward is doorbell 0.3 + PCIe 6.2 + wire 5.6 + ACK ~1 us.
	if us := sim.Duration(doneAt).Microseconds(); us < 6.5 || us > 9.5 {
		t.Errorf("64 KiB WRITE completed after %.2f us, want about 8 (cut-through), not 13 (store-and-forward)", us)
	}
}

// TestReadBehindHalfFedWrite: a READ posted on the QP of a WRITE whose
// payload is half fetched waits its turn in PSN order; nothing is NAKed
// or sent twice.
func TestReadBehindHalfFedWrite(t *testing.T) {
	pair := bulkPair(t)
	data := fillA(t, pair, bulkSize)
	ca := chaos.AttachChecker(pair.A.Stack(), "A", pair.Eng)
	cb := chaos.AttachChecker(pair.B.Stack(), "B", pair.EngB)
	completed := 0
	done := func(err error) {
		if err != nil {
			t.Errorf("verb: %v", err)
		}
		completed++
	}
	a, srcA, srcB := pair.A, uint64(pair.BufA.Base()), uint64(pair.BufB.Base())
	pair.Eng.Schedule(0, func() { a.PostWrite(testrig.QPA, srcA, srcB, bulkSize, done) })
	pair.Eng.Schedule(2500*sim.Nanosecond, func() { a.PostRead(testrig.QPA, srcB+bulkDst, srcA+bulkDst, 4096, done) })
	pair.Eng.Schedule(3200*sim.Nanosecond, func() {
		// The READ's doorbell has rung; the WRITE is about a third out.
		if tx, pend := a.Stack().Stats().TxPackets, a.Stack().PendingPackets(testrig.QPA); tx == 0 || tx > 30 || pend != 48 {
			t.Errorf("at 3.2 us: %d frames sent, %d packets pending; want a half-sent WRITE with the READ queued behind it", tx, pend)
		}
	})
	pair.Run()
	if completed != 2 {
		t.Fatalf("completed %d/2 verbs", completed)
	}
	if !bytes.Equal(atB(t, pair, 0, bulkSize), data) {
		t.Error("remote bytes differ")
	}
	sa, sb := a.Stack().Stats(), pair.B.Stack().Stats()
	if sb.NaksSent != 0 || sb.RxOutOfOrder != 0 || sa.Retransmissions != 0 || sa.Timeouts != 0 {
		t.Errorf("B naks=%d ooo=%d, A retrans=%d timeouts=%d; want all 0", sb.NaksSent, sb.RxOutOfOrder, sa.Retransmissions, sa.Timeouts)
	}
	for _, v := range append(ca.Finish(), cb.Finish()...) {
		t.Error(v)
	}
}

// TestFrameLostWhileTailUnfetched: frame 10 of a 64 KiB WRITE is lost
// while most of the message is still in host memory. Go-back-N replays
// what was sent, the rest follows as it arrives, and the verb completes
// exactly once, byte-equal, with the invariant checker clean.
func TestFrameLostWhileTailUnfetched(t *testing.T) {
	pair := bulkPair(t)
	data := fillA(t, pair, bulkSize)
	ca := chaos.AttachChecker(pair.A.Stack(), "A", pair.Eng)
	cb := chaos.AttachChecker(pair.B.Stack(), "B", pair.EngB)
	// Drop frame 10 and record how many frames A had sent by then.
	var txAtDrop uint64
	pair.Link.SetFaultsAtoB(&fabric.FrameScript{Steps: []fabric.FrameStep{{
		Nth: 10, Verdict: fabric.Verdict{Drop: true},
		Do: func() { txAtDrop = pair.A.Stack().Stats().TxPackets },
	}}})
	completions := 0
	pair.Eng.Schedule(0, func() {
		pair.A.PostWrite(testrig.QPA, uint64(pair.BufA.Base()), uint64(pair.BufB.Base()), bulkSize, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			completions++
		})
	})
	pair.Run()
	if completions != 1 {
		t.Fatalf("%d completions, want exactly one", completions)
	}
	if txAtDrop == 0 || txAtDrop > 20 {
		t.Errorf("%d frames had left when frame 10 was lost: the tail was not unfetched", txAtDrop)
	}
	if !bytes.Equal(atB(t, pair, 0, bulkSize), data) {
		t.Error("remote bytes differ")
	}
	sa, sb := pair.A.Stack().Stats(), pair.B.Stack().Stats()
	if sb.NaksSent != 1 || sa.Retransmissions == 0 || sa.Retransmissions >= 37 || sa.Timeouts != 0 {
		t.Errorf("B naks=%d, A retrans=%d timeouts=%d; want one NAK and a replay shorter than segments 10..46", sb.NaksSent, sa.Retransmissions, sa.Timeouts)
	}
	for _, v := range append(ca.Finish(), cb.Finish()...) {
		t.Error(v)
	}
}

// TestFlushWhileChunksInFlight: whatever ends a verb while its payload is
// still crossing PCIe — a QP reset, a machine crash, its deadline — ends
// it once, with the typed error, and the chunks that keep arriving from
// the DMA engine put no further frame on the wire.
func TestFlushWhileChunksInFlight(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline sim.Time
		flush    func(pair *testrig.Pair)
		want     error
		// flushed: the message is gone and must stop sending (a deadline
		// only releases the caller; the frames keep the PSN space whole).
		flushed bool
	}{
		{name: "qp reset", flush: func(pair *testrig.Pair) {
			if err := pair.A.Stack().ResetQP(testrig.QPA); err != nil {
				t.Error(err)
			}
		}, want: roce.ErrQPError, flushed: true},
		{name: "machine crash", flush: func(pair *testrig.Pair) { pair.A.Crash() }, want: roce.ErrQPError, flushed: true},
		{name: "deadline", deadline: sim.Time(3500 * sim.Nanosecond), flush: func(*testrig.Pair) {}, want: sim.ErrDeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pair := bulkPair(t)
			data := fillA(t, pair, bulkSize)
			ca := chaos.AttachChecker(pair.A.Stack(), "A", pair.Eng)
			var errs []error
			pair.Eng.Schedule(0, func() {
				pair.A.Post(testrig.QPA, core.Verb{Op: core.OpWrite, LocalVA: uint64(pair.BufA.Base()), RemoteVA: uint64(pair.BufB.Base()), Len: bulkSize, Deadline: tc.deadline},
					func(err error) { errs = append(errs, err) })
			})
			var txAfter uint64
			pair.Eng.Schedule(3500*sim.Nanosecond, func() {
				tc.flush(pair)
				// What is inside the TX pipeline at the flush still drains.
				pair.Eng.Schedule(300*sim.Nanosecond, func() { txAfter = pair.A.Stack().Stats().TxPackets })
			})
			pair.Run()
			if len(errs) != 1 || !errors.Is(errs[0], tc.want) {
				t.Fatalf("completions %v, want exactly one %v", errs, tc.want)
			}
			if st := pair.A.DMA().Stats(); st.ReadBytes != bulkSize {
				t.Errorf("DMA read %d bytes, want the whole payload (the command was in flight)", st.ReadBytes)
			}
			tx := pair.A.Stack().Stats().TxPackets
			if tc.flushed && (tx != txAfter || tx >= 40) {
				t.Errorf("%d frames sent, %d just after the flush: the flushed message kept sending", tx, txAfter)
			}
			if !tc.flushed && !bytes.Equal(atB(t, pair, 0, bulkSize), data) {
				t.Error("a canceled verb's frames must still all arrive")
			}
			for _, v := range ca.Finish() {
				t.Error(v)
			}
		})
	}
}

// TestOfflineWhileChunksInFlight: the DMA engine going offline does not
// touch a command in flight — its data had left host memory — so the
// verb completes, once; the next one fails with pcie.ErrOffline, once.
func TestOfflineWhileChunksInFlight(t *testing.T) {
	pair := bulkPair(t)
	data := fillA(t, pair, bulkSize)
	var errs []error
	done := func(err error) { errs = append(errs, err) }
	a, srcA, srcB := pair.A, uint64(pair.BufA.Base()), uint64(pair.BufB.Base())
	pair.Eng.Schedule(0, func() { a.PostWrite(testrig.QPA, srcA, srcB, bulkSize, done) })
	pair.Eng.Schedule(3500*sim.Nanosecond, func() {
		a.DMA().SetOffline(true)
		a.PostWrite(testrig.QPA, srcA, srcB+bulkDst, bulkSize, done)
	})
	pair.Run()
	if len(errs) != 2 || !errors.Is(errs[0], pcie.ErrOffline) || errs[1] != nil {
		t.Fatalf("completions %v, want ErrOffline for the second verb, then nil for the first", errs)
	}
	if !bytes.Equal(atB(t, pair, 0, bulkSize), data) {
		t.Error("remote bytes differ")
	}
	if tx := a.Stack().Stats().TxPackets; tx != 47 {
		t.Errorf("%d frames sent, want the first verb's 47", tx)
	}
}

// TestAllocsFetchPerChunk: a chunk of a streamed fetch costs its retained
// frame and nothing else, and a 64 KiB WRITE through the whole NIC costs
// no more objects than it did when the payload was fetched in one piece
// (59.5 then).
func TestAllocsFetchPerChunk(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	pair := bulkPair(t)
	a, srcA, srcB := pair.A, uint64(pair.BufA.Base()), uint64(pair.BufB.Base())
	mtu := pair.A.Config().Roce.MTUPayload
	done := func(error) {}
	write := func(n int) func() {
		return func() {
			pair.Eng.Schedule(0, func() { a.PostWrite(testrig.QPA, srcA, srcB, n, done) })
			pair.Run()
		}
	}
	for i := 0; i < 32; i++ {
		write(bulkSize)()
	}
	one := testing.AllocsPerRun(100, write(mtu))
	bulk := testing.AllocsPerRun(100, write(bulkSize))
	perChunk := (bulk - one) / 46
	t.Logf("1-chunk WRITE %.1f allocs, 47-chunk WRITE %.1f: %.2f per further chunk", one, bulk, perChunk)
	if perChunk > 1.1 {
		t.Errorf("a chunk allocates %.2f times, want 1 (the retained frame)", perChunk)
	}
	if bulk > 60 {
		t.Errorf("a 64 KiB WRITE allocates %.1f times, more than before the fetch was streamed (59.5)", bulk)
	}
}
