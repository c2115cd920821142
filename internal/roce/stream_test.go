package roce

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"strom/internal/crc"
	"strom/internal/fabric"
	"strom/internal/packet"
	"strom/internal/raceflag"
	"strom/internal/sim"
)

// feeder posts a WRITE of data on QP 1 of p.a with its first MTU payload
// and feeds the rest one MTU payload every gap, the way the DMA engine
// hands the NIC a payload that is still crossing PCIe.
type feeder struct {
	p           *pair
	ws          *Message
	data        []byte
	fed         int
	gap         sim.Duration
	completions int
	err         error
}

func startFeed(t *testing.T, p *pair, va uint64, data []byte, gap sim.Duration) *feeder {
	t.Helper()
	f := &feeder{p: p, data: data, gap: gap}
	mtu := p.a.Config().MTUPayload
	ws, err := p.a.PostWriteStream(1, va, 0, len(data), data[:min(mtu, len(data))], func(err error) {
		f.completions++
		f.err = err
	})
	if err != nil {
		t.Fatal(err)
	}
	f.ws, f.fed = ws, min(mtu, len(data))
	f.next()
	return f
}

func (f *feeder) next() {
	if f.fed == len(f.data) {
		return
	}
	f.p.eng.Schedule(f.gap, func() {
		end := min(f.fed+f.p.a.Config().MTUPayload, len(f.data))
		f.ws.Feed(f.data[f.fed:end])
		f.fed = end
		f.next()
	})
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestWriteStreamLeavesWhileFed: the first frames of a streamed WRITE are
// on the wire, and in remote memory, while its tail has not been fed yet;
// the message completes once, byte-equal, without a NAK or a resend.
func TestWriteStreamLeavesWhileFed(t *testing.T) {
	cfg := Config10G()
	p := newPair(t, 1, cfg, fabric.DirectCable10G())
	data := randomBytes(3, 10*cfg.MTUPayload+77)
	var f *feeder
	p.eng.Schedule(0, func() { f = startFeed(t, p, 4096, data, 3*sim.Microsecond) })
	p.eng.RunUntil(sim.Time(20 * sim.Microsecond))
	if f.fed == len(data) {
		t.Fatal("test is vacuous: the whole payload was fed already")
	}
	if p.hb.writeSegs < 3 || !bytes.Equal(p.hb.buf[4096:4096+2*cfg.MTUPayload], data[:2*cfg.MTUPayload]) {
		t.Errorf("after 20 us %d segments landed remotely, want the fed ones", p.hb.writeSegs)
	}
	p.eng.Run()
	if f.completions != 1 || f.err != nil {
		t.Fatalf("completions=%d err=%v", f.completions, f.err)
	}
	if !bytes.Equal(p.hb.buf[4096:4096+len(data)], data) {
		t.Error("remote bytes differ")
	}
	if a, b := p.a.Stats(), p.b.Stats(); a.TxPackets != 11 || a.Retransmissions != 0 || b.NaksSent != 0 || b.RxOutOfOrder != 0 {
		t.Errorf("A tx=%d retrans=%d, B naks=%d ooo=%d; want 11 0 0 0", a.TxPackets, a.Retransmissions, b.NaksSent, b.RxOutOfOrder)
	}
}

// TestPostsBehindHalfFedWriteKeepPSNOrder: a READ, a WRITE and an RPC
// posted on the QP of a half-fed message own later PSNs and may not
// overtake it — the responder would NAK the gap and the requester replay
// everything. They wait, leave in order once the message is fed, and
// nothing is NAKed or resent.
func TestPostsBehindHalfFedWriteKeepPSNOrder(t *testing.T) {
	cfg := Config10G()
	p := newPair(t, 1, cfg, fabric.DirectCable10G())
	data := randomBytes(5, 64<<10)
	remote := randomBytes(6, 4096)
	copy(p.hb.buf[1<<20:], remote)
	small := []byte("kernel write behind the stream")
	var f *feeder
	var got []byte
	done := map[string]int{}
	note := func(what string) func(error) {
		return func(err error) {
			if err != nil {
				t.Errorf("%s: %v", what, err)
			}
			done[what]++
		}
	}
	p.eng.Schedule(0, func() {
		f = startFeed(t, p, 0, data, 30*sim.Microsecond)
		sink := func(off int, chunk []byte, ack func()) { got = append(got, chunk...); ack() }
		if _, err := p.a.PostRead(1, 1<<20, 0, len(remote), sink, note("read")); err != nil {
			t.Error(err)
		}
		if err := p.a.PostWrite(1, 2<<20, small, note("write")); err != nil {
			t.Error(err)
		}
		if _, err := p.a.PostRPC(1, 7, []byte("p"), note("rpc")); err != nil {
			t.Error(err)
		}
	})
	p.eng.RunUntil(sim.Time(25 * sim.Microsecond))
	if tx := p.a.Stats().TxPackets; tx != 1 {
		t.Errorf("%d frames left behind a message with one segment fed, want 1", tx)
	}
	if len(done) != 0 {
		t.Errorf("completed behind a half-fed message: %v", done)
	}
	p.eng.Run()
	if f.completions != 1 || f.err != nil || done["read"] != 1 || done["write"] != 1 || done["rpc"] != 1 {
		t.Fatalf("stream %d (%v), others %v; want one clean completion each", f.completions, f.err, done)
	}
	if !bytes.Equal(got, remote) || !bytes.Equal(p.hb.buf[:len(data)], data) || !bytes.Equal(p.hb.buf[2<<20:2<<20+len(small)], small) {
		t.Error("data differs")
	}
	a, b := p.a.Stats(), p.b.Stats()
	if b.NaksSent != 0 || b.RxOutOfOrder != 0 || a.Retransmissions != 0 || a.Timeouts != 0 {
		t.Errorf("B naks=%d ooo=%d, A retrans=%d timeouts=%d; want all 0", b.NaksSent, b.RxOutOfOrder, a.Retransmissions, a.Timeouts)
	}
}

// TestLossMidStreamReplaysOnlyWhatWasSent: segment 3 of 12 is lost while
// segments 6.. are still unfed. The NAK replays the sent tail and nothing
// else — there is no frame yet for the rest — and the unfed segments
// follow behind it in order.
func TestLossMidStreamReplaysOnlyWhatWasSent(t *testing.T) {
	cfg := Config10G()
	p := newPair(t, 1, cfg, fabric.DirectCable10G())
	p.link.SetFaultsAtoB(killNth(3, false))
	data := randomBytes(7, 12*cfg.MTUPayload)
	var f *feeder
	p.eng.Schedule(0, func() { f = startFeed(t, p, 0, data, 2*sim.Microsecond) })
	p.eng.Run()
	if f.completions != 1 || f.err != nil {
		t.Fatalf("completions=%d err=%v", f.completions, f.err)
	}
	if !bytes.Equal(p.hb.buf[:len(data)], data) {
		t.Error("remote bytes differ")
	}
	a, b := p.a.Stats(), p.b.Stats()
	if b.NaksSent != 1 || a.Timeouts != 0 || a.Retransmissions == 0 || a.Retransmissions >= 9 {
		t.Errorf("B naks=%d, A retrans=%d timeouts=%d; want 1 NAK, a replay shorter than segments 3..11, no timeout",
			b.NaksSent, a.Retransmissions, a.Timeouts)
	}
	if p.hb.writeSegs != 12 {
		t.Errorf("responder executed %d segments, want 12 (each exactly once)", p.hb.writeSegs)
	}
}

// TestFlushedStreamSendsNothingMore: a QP reset, a fatal error and a
// stack freeze each complete a half-fed message exactly once with the
// typed error, and the pieces fed afterwards put no frame on the wire.
func TestFlushedStreamSendsNothingMore(t *testing.T) {
	cfg := Config10G()
	for _, tc := range []struct {
		name  string
		flush func(p *pair)
	}{
		{"reset", func(p *pair) {
			if err := p.a.ResetQP(1); err != nil {
				t.Fatal(err)
			}
		}},
		{"error", func(p *pair) { p.a.moveToError(1, &p.a.st.qps[1], ErrRetryExceeded) }},
		{"freeze", func(p *pair) { p.a.Freeze() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, 1, cfg, fabric.DirectCable10G())
			data := randomBytes(9, 16*cfg.MTUPayload)
			var f *feeder
			p.eng.Schedule(0, func() { f = startFeed(t, p, 0, data, 2*sim.Microsecond) })
			var txAtFlush uint64
			p.eng.Schedule(9*sim.Microsecond, func() {
				tc.flush(p)
				// Frames already inside the TX pipeline still drain.
				p.eng.Schedule(sim.Microsecond, func() { txAtFlush = p.a.Stats().TxPackets })
			})
			p.eng.Run()
			if f.fed != len(data) {
				t.Fatal("the feed stopped early")
			}
			if f.completions != 1 || !errors.Is(f.err, ErrQPError) {
				t.Fatalf("completions=%d err=%v, want one ErrQPError", f.completions, f.err)
			}
			if tx := p.a.Stats().TxPackets; tx != txAtFlush || tx >= 16 {
				t.Errorf("%d frames sent, %d at the flush: a flushed message kept sending", tx, txAtFlush)
			}
			if p.a.PendingPackets(1) != 0 {
				t.Errorf("%d packets pending after the flush", p.a.PendingPackets(1))
			}
		})
	}
}

// TestDeadlineMidStreamKeepsPSNSpaceWhole: a verb deadline that expires
// mid-feed completes the verb with the deadline error, but its remaining
// segments are still sent (their PSNs are taken), so the next verb on
// the QP goes through without a NAK.
func TestDeadlineMidStreamKeepsPSNSpaceWhole(t *testing.T) {
	cfg := Config10G()
	p := newPair(t, 1, cfg, fabric.DirectCable10G())
	data := randomBytes(11, 8*cfg.MTUPayload)
	var f *feeder
	p.eng.Schedule(0, func() {
		f = startFeed(t, p, 0, data, 3*sim.Microsecond)
		p.eng.ScheduleAt(sim.Time(10*sim.Microsecond), f.ws.Expire)
	})
	next := 0
	p.eng.Schedule(12*sim.Microsecond, func() {
		if f.completions != 1 || !errors.Is(f.err, sim.ErrDeadlineExceeded) {
			t.Errorf("at the deadline: completions=%d err=%v", f.completions, f.err)
		}
		if err := p.a.PostWrite(1, 1<<20, []byte("next"), func(err error) {
			if err != nil {
				t.Errorf("next verb: %v", err)
			}
			next++
		}); err != nil {
			t.Error(err)
		}
	})
	p.eng.Run()
	if f.completions != 1 || next != 1 {
		t.Fatalf("completions: canceled verb %d, next verb %d", f.completions, next)
	}
	if !bytes.Equal(p.hb.buf[:len(data)], data) {
		t.Error("the canceled verb's frames did not all arrive")
	}
	if a, b := p.a.Stats(), p.b.Stats(); b.NaksSent != 0 || a.Retransmissions != 0 || a.DeadlineExpired != 1 {
		t.Errorf("B naks=%d, A retrans=%d deadlines=%d", b.NaksSent, a.Retransmissions, a.DeadlineExpired)
	}
}

// TestAbortMidStreamMovesQPToError: when the source of a stream fails,
// the PSNs of the missing segments cannot be returned — the QP is lost,
// and every verb on it completes once with the cause attached.
func TestAbortMidStreamMovesQPToError(t *testing.T) {
	cfg := Config10G()
	p := newPair(t, 1, cfg, fabric.DirectCable10G())
	data := randomBytes(13, 8*cfg.MTUPayload)
	cause := errors.New("dma fetch failed")
	var ws *Message
	var errs []error
	p.eng.Schedule(0, func() {
		var err error
		ws, err = p.a.PostWriteStream(1, 0, 0, len(data), data[:2*cfg.MTUPayload], func(err error) { errs = append(errs, err) })
		if err != nil {
			t.Fatal(err)
		}
		if err := p.a.PostWrite(1, 1<<20, []byte("behind"), func(err error) { errs = append(errs, err) }); err != nil {
			t.Error(err)
		}
	})
	p.eng.Schedule(5*sim.Microsecond, func() {
		ws.Abort(cause)
		ws.Abort(cause) // idempotent
		ws.Feed(data[2*cfg.MTUPayload:])
	})
	p.eng.Run()
	if len(errs) != 2 || !errors.Is(errs[0], ErrQPError) || !errors.Is(errs[0], cause) || !errors.Is(errs[1], ErrQPError) {
		t.Fatalf("completions %v, want two ErrQPError, the first wrapping the cause", errs)
	}
	if st, _ := p.a.QPStateOf(1); st != QPStateError {
		t.Errorf("QP state %v, want ERROR", st)
	}
	if tx := p.a.Stats().TxPackets; tx != 2 {
		t.Errorf("%d frames sent, want the 2 fed before the abort", tx)
	}
}

// TestRefusedStreamStillSendsItsTail: an RPC WRITE nobody serves is
// NAKed on its first segment, long before its tail is fed. The verb
// fails once; the tail still goes out so that the QP stays usable.
func TestRefusedStreamStillSendsItsTail(t *testing.T) {
	cfg := Config10G()
	p := newPair(t, 1, cfg, fabric.DirectCable10G())
	p.hb.rpcErr = errors.New("no kernel")
	data := randomBytes(15, 6*cfg.MTUPayload)
	var ws *Message
	var errs []error
	fed := cfg.MTUPayload
	p.eng.Schedule(0, func() {
		var err error
		ws, err = p.a.PostRPCWriteStream(1, 9, len(data), data[:fed], func(err error) { errs = append(errs, err) })
		if err != nil {
			t.Fatal(err)
		}
	})
	for i := 1; i < 6; i++ {
		p.eng.Schedule(sim.Duration(i)*10*sim.Microsecond, func() {
			ws.Feed(data[fed : fed+cfg.MTUPayload])
			fed += cfg.MTUPayload
		})
	}
	next := 0
	p.eng.Schedule(100*sim.Microsecond, func() {
		p.hb.rpcErr = nil
		if _, err := p.a.PostRPC(1, 9, []byte("again"), func(err error) {
			if err != nil {
				t.Errorf("next verb: %v", err)
			}
			next++
		}); err != nil {
			t.Error(err)
		}
	})
	p.eng.Run()
	if len(errs) != 1 || !errors.Is(errs[0], ErrRemoteInvalid) || next != 1 {
		t.Fatalf("refused verb %v, next verb completed %d times", errs, next)
	}
	if a, b := p.a.Stats(), p.b.Stats(); a.TxPackets != 7 || a.Timeouts != 0 || b.RxOutOfOrder != 0 {
		t.Errorf("A tx=%d timeouts=%d, B ooo=%d; want 7 0 0", a.TxPackets, a.Timeouts, b.RxOutOfOrder)
	}
}

// newPiecePair is a pair whose responder serves READs piecewise (see
// memHandler.pieceGap).
func newPiecePair(t *testing.T, failAfter int) *pair {
	t.Helper()
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	p.hb.pieceGap, p.hb.pieceLen, p.hb.failAfter = 4*sim.Microsecond, Config10G().MTUPayload, failAfter
	return p
}

// TestReadServedInPieces: a handler that delivers a READ's data in
// pieces gets a response frame out per piece — the requester holds the
// head of the data while the responder has not fetched the tail — and
// the observer still sees one digest of the whole serving.
func TestReadServedInPieces(t *testing.T) {
	p := newPiecePair(t, 0)
	mtu := p.a.Config().MTUPayload
	remote := randomBytes(17, 5*mtu+300)
	copy(p.hb.buf[8192:], remote)
	obs := &servingRecorder{}
	p.b.SetObserver(obs)
	var got []byte
	completions := 0
	p.eng.Schedule(0, func() {
		sink := func(off int, chunk []byte, ack func()) { got = append(got, chunk...); ack() }
		if _, err := p.a.PostRead(1, 8192, 0, len(remote), sink, func(err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			completions++
		}); err != nil {
			t.Error(err)
		}
	})
	p.eng.RunUntil(sim.Time(15 * sim.Microsecond))
	if len(got) == 0 || len(got) == len(remote) {
		t.Errorf("after 15 us the requester holds %d of %d bytes, want a proper head", len(got), len(remote))
	}
	p.eng.Run()
	if completions != 1 || !bytes.Equal(got, remote) {
		t.Fatalf("completions=%d, data equal=%v", completions, bytes.Equal(got, remote))
	}
	if len(obs.sums) != 1 || obs.sums[0] != crc.Checksum64(remote) || obs.lens[0] != len(remote) {
		t.Errorf("observer saw servings %x of %v bytes, want one digest of the whole data", obs.sums, obs.lens)
	}
}

// TestReadServingFailsMidway: a fetch error after some response frames
// NAKs the first PSN not served; on a READ that is fatal for the QP.
func TestReadServingFailsMidway(t *testing.T) {
	p := newPiecePair(t, 2)
	mtu := p.a.Config().MTUPayload
	var errs []error
	p.eng.Schedule(0, func() {
		sink := func(off int, chunk []byte, ack func()) { ack() }
		if _, err := p.a.PostRead(1, 0, 0, 5*mtu, sink, func(err error) { errs = append(errs, err) }); err != nil {
			t.Error(err)
		}
	})
	p.eng.Run()
	if len(errs) != 1 || !errors.Is(errs[0], ErrRemoteInvalid) || !errors.Is(errs[0], ErrQPError) {
		t.Fatalf("completions %v, want one ErrQPError wrapping ErrRemoteInvalid", errs)
	}
	if b := p.b.Stats(); b.NaksSent != 1 || b.TxPackets != 3 {
		t.Errorf("B sent %d frames, %d NAKs; want 2 responses and the NAK", b.TxPackets, b.NaksSent)
	}
}

// TestAllocsStreamPerPiece: feeding a 45-segment WRITE one segment at a
// time allocates what posting it in one piece does — the retained frames
// and the per-message records — and nothing per piece.
func TestAllocsStreamPerPiece(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	cfg := Config10G()
	const segs = 45
	data := make([]byte, segs*cfg.MTUPayload)
	measure := func(pieces bool) float64 {
		p := newPair(t, 1, cfg, fabric.DirectCable10G())
		completed := 0
		done := func(error) { completed++ }
		var ws *Message
		off := 0
		var feed func()
		feed = func() {
			ws.Feed(data[off : off+cfg.MTUPayload])
			if off += cfg.MTUPayload; off < len(data) {
				p.eng.Schedule(sim.Microsecond, feed)
			}
		}
		post := func() {
			first := len(data)
			if pieces {
				first = cfg.MTUPayload
			}
			ws, _ = p.a.PostWriteStream(1, 0, 0, len(data), data[:first], done)
			if off = first; pieces {
				p.eng.Schedule(sim.Microsecond, feed)
			}
		}
		run := func() {
			p.eng.Schedule(0, post)
			p.eng.Run()
		}
		for i := 0; i < 20; i++ {
			run()
		}
		n := testing.AllocsPerRun(50, run)
		if completed != 71 {
			t.Fatalf("completed %d of 71 writes", completed)
		}
		return n
	}
	whole, fed := measure(false), measure(true)
	t.Logf("45-segment WRITE: %.1f allocs in one piece, %.1f fed a segment at a time", whole, fed)
	if fed > whole {
		t.Errorf("a piecewise feed allocates %.1f times, more than the %.1f of one piece", fed, whole)
	}
}

// servingRecorder is an Observer that keeps the READ servings it is told
// about and ignores everything else.
type servingRecorder struct {
	sums []uint64
	lens []int
}

func (r *servingRecorder) RespReadData(qpn, psn uint32, sum uint64, n int) {
	r.sums, r.lens = append(r.sums, sum), append(r.lens, n)
}
func (*servingRecorder) PostedOp(uint32, uint64, string)                       {}
func (*servingRecorder) CompletedOp(uint32, uint64, error)                     {}
func (*servingRecorder) TxRequest(uint32, uint32, uint32, packet.Opcode, bool) {}
func (*servingRecorder) RespExec(uint32, uint32, uint32, packet.Opcode, bool)  {}
func (*servingRecorder) Timeout(uint32, int, int)                              {}
func (*servingRecorder) QPStateChange(qpn uint32, state QPState, cause error)  {}
