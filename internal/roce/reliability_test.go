package roce

import (
	"bytes"
	"math/rand"
	"testing"

	"strom/internal/fabric"
	"strom/internal/packet"
	"strom/internal/sim"
)

func TestNAKSequenceResync(t *testing.T) {
	// Drop a window of request packets so the responder sees a gap,
	// NAKs, and go-back-N recovers exactly once per gap.
	p := newPair(t, 5, Config10G(), fabric.DirectCable10G())
	n := Config10G().MTUPayload * 6
	data := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(data)
	// Drop everything A->B for a short window mid-message.
	p.eng.Schedule(0, func() { p.link.SetOfflineAtoB(true) })
	p.eng.Schedule(300*sim.Microsecond, func() { p.link.SetOfflineAtoB(false) })
	ok := false
	p.eng.Schedule(100*sim.Microsecond, func() {
		p.a.PostWrite(1, 0, data, func(err error) { ok = err == nil })
	})
	p.eng.Run()
	if !ok {
		t.Fatal("write never completed")
	}
	if !bytes.Equal(p.hb.buf[:n], data) {
		t.Error("data mismatch after NAK recovery")
	}
	if p.b.Stats().NaksSent == 0 && p.a.Stats().Timeouts == 0 {
		t.Error("no NAK or timeout despite a forced gap")
	}
}

func TestNAKSentOncePerGap(t *testing.T) {
	// The responder NAKs a sequence error once and stays quiet until
	// resynchronised (nakSent latch).
	p := newPair(t, 6, Config10G(), fabric.DirectCable10G())
	st, err := p.b.st.get(2)
	if err != nil {
		t.Fatal(err)
	}
	// Three out-of-order packets in a row -> exactly one NAK.
	for i := 0; i < 3; i++ {
		frame := buildWriteOnly(p, 10+uint32(i))
		p.eng.Schedule(sim.Duration(i)*sim.Microsecond, func() { p.link.SendFromA(frame) })
	}
	p.eng.Run()
	if got := p.b.Stats().NaksSent; got != 1 {
		t.Errorf("NAKs sent = %d, want 1", got)
	}
	if st.ePSN != 0 {
		t.Errorf("ePSN advanced to %d on out-of-order packets", st.ePSN)
	}
}

// buildWriteOnly encodes a WRITE_ONLY frame from A toward B's QP2 with
// an arbitrary PSN, for injecting out-of-order traffic.
func buildWriteOnly(p *pair, psn uint32) []byte {
	pkt := &packet.Packet{
		DstMAC: p.b.Identity().MAC, SrcMAC: p.a.Identity().MAC,
		SrcIP: p.a.Identity().IP, DstIP: p.b.Identity().IP,
		BTH:     packet.BTH{Opcode: packet.OpWriteOnly, DestQP: 2, PSN: psn, AckReq: true},
		RETH:    &packet.RETH{VirtualAddress: 0, DMALength: 1},
		Payload: []byte{0xEE},
	}
	return pkt.Encode()
}

func TestMultiQPIsolation(t *testing.T) {
	// Loss on one QP's traffic must not disturb another QP: create two
	// QPs, drop all packets briefly while both have traffic in flight.
	cfg := Config10G()
	p := newPair(t, 7, cfg, fabric.DirectCable10G())
	if err := p.a.CreateQP(3, p.b.Identity(), 4); err != nil {
		t.Fatal(err)
	}
	if err := p.b.CreateQP(4, p.a.Identity(), 3); err != nil {
		t.Fatal(err)
	}
	p.eng.Schedule(0, func() { p.link.SetFaultsAtoB(fabric.Coin{Rand: p.eng.Rand(), DropProb: 0.3}) })
	p.eng.Schedule(2*sim.Millisecond, func() { p.link.SetFaultsAtoB(nil) })
	okA, okB := 0, 0
	const msgs = 50
	p.eng.Schedule(0, func() {
		for i := 0; i < msgs; i++ {
			i := i
			p.a.PostWrite(1, uint64(i*8), []byte{1, byte(i)}, func(err error) {
				if err == nil {
					okA++
				}
			})
			p.a.PostWrite(3, uint64(4096+i*8), []byte{2, byte(i)}, func(err error) {
				if err == nil {
					okB++
				}
			})
		}
	})
	p.eng.Run()
	if okA != msgs || okB != msgs {
		t.Errorf("completions = %d/%d", okA, okB)
	}
	for i := 0; i < msgs; i++ {
		if p.hb.buf[i*8] != 1 || p.hb.buf[4096+i*8] != 2 {
			t.Fatalf("message %d landed wrong", i)
		}
	}
}

func TestDuplicateReadReExecuted(t *testing.T) {
	// Drop the read response once: the retried READ request lands in the
	// duplicate region and must be re-executed, not ignored.
	cfg := Config10G()
	cfg.RetransTimeout = 30 * sim.Microsecond
	p := newPair(t, 8, cfg, fabric.DirectCable10G())
	copy(p.hb.buf[64:], []byte("retry me"))
	dropped := false
	// Drop exactly the first B->A data packet.
	p.eng.Schedule(0, func() { p.link.SetOfflineBtoA(true) })
	p.eng.Schedule(20*sim.Microsecond, func() {
		p.link.SetOfflineBtoA(false)
		dropped = true
	})
	var got []byte
	ok := false
	p.eng.Schedule(0, func() {
		p.a.PostRead(1, 64, 0, 8, 0, func(off int, chunk []byte, ack func()) {
			got = append(got, chunk...)
			ack()
		}, func(err error) { ok = err == nil })
	})
	p.eng.Run()
	if !dropped || !ok {
		t.Fatalf("dropped=%v ok=%v", dropped, ok)
	}
	if string(got) != "retry me" {
		t.Errorf("got %q", got)
	}
	if p.b.Stats().RxDuplicates == 0 {
		t.Error("responder never saw the duplicate READ request")
	}
}

func Test100GConfigBehaviour(t *testing.T) {
	p := newPair(t, 9, Config100G(), fabric.DirectCable100G())
	n := 1 << 20
	data := make([]byte, n)
	rand.New(rand.NewSource(2)).Read(data)
	var done sim.Time
	p.eng.Schedule(0, func() {
		p.a.PostWrite(1, 0, data, func(err error) {
			if err != nil {
				t.Error(err)
			}
			done = p.eng.Now()
		})
	})
	p.eng.Run()
	if !bytes.Equal(p.hb.buf[:n], data) {
		t.Fatal("100G data mismatch")
	}
	gbps := float64(n) * 8 / sim.Duration(done).Seconds() / 1e9
	// One message: fill latency keeps it below line rate but well above
	// what 10 G could do.
	if gbps < 40 {
		t.Errorf("100G single-message rate = %.1f Gbit/s", gbps)
	}
}

func TestRetriesResetOnProgress(t *testing.T) {
	// Lossy link for a long transfer: the retry counter must keep
	// resetting on progress rather than accumulating to MaxRetries.
	cfg := Config10G()
	cfg.RetransTimeout = 20 * sim.Microsecond
	cfg.MaxRetries = 4
	p := newPair(t, 10, cfg, fabric.DirectCable10G())
	p.link.SetFaultsAtoB(fabric.Coin{Rand: p.eng.Rand(), DropProb: 0.1})
	n := cfg.MTUPayload * 40
	data := make([]byte, n)
	rand.New(rand.NewSource(3)).Read(data)
	var got error
	ok := false
	p.eng.Schedule(0, func() {
		p.a.PostWrite(1, 0, data, func(err error) { got = err; ok = true })
	})
	p.eng.Run()
	if !ok {
		t.Fatal("no completion")
	}
	if got != nil {
		t.Fatalf("long lossy transfer failed: %v", got)
	}
	if !bytes.Equal(p.hb.buf[:n], data) {
		t.Error("data mismatch")
	}
}

func TestOutstandingReadsReported(t *testing.T) {
	p := newPair(t, 11, Config10G(), fabric.DirectCable10G())
	p.eng.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			if err := p.a.PostRead(1, 0, 0, 64, 0, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := p.a.OutstandingReads(1); got != 5 {
			t.Errorf("outstanding = %d", got)
		}
	})
	p.eng.Run()
	if got := p.a.OutstandingReads(1); got != 0 {
		t.Errorf("outstanding after drain = %d", got)
	}
}

// killNth drops or corrupts exactly frame idx (0-based, counting every
// frame entering the direction, retransmissions included), so a test can
// kill precisely packet k of n and assert exact recovery counts.
func killNth(idx int, corrupt bool) *fabric.FrameScript {
	return &fabric.FrameScript{Steps: []fabric.FrameStep{{Nth: idx, Verdict: fabric.Verdict{Drop: !corrupt, Corrupt: corrupt}}}}
}

// TestGoBackNDropSchedule kills exactly segment k of an n-segment WRITE
// and checks the recovery against the go-back-N arithmetic: a mid-message
// kill leaves a gap the responder NAKs exactly once, and the requester
// replays exactly the n-k unacknowledged segments; killing the final
// (AckReq) segment leaves no gap to NAK, so only the timeout-snapshot
// path can recover, replaying the whole message. Timeouts stay zero on
// the NAK paths because received (N)ACKs bump the progress counter and
// turn the pending expiry into a no-op re-arm.
func TestGoBackNDropSchedule(t *testing.T) {
	cfg := Config10G()
	const segs = 6
	n := cfg.MTUPayload * segs
	cases := []struct {
		name     string
		killIdx  int
		corrupt  bool
		naks     uint64 // NAKs sent by the responder
		retrans  uint64 // frames replayed by the requester
		timeouts uint64
		oooB     uint64 // out-of-order arrivals at the responder
		dupsB    uint64 // duplicate-region arrivals at the responder
	}{
		{"drop-first", 0, false, 1, 6, 0, 5, 0},
		{"drop-middle", 2, false, 1, 4, 0, 3, 0},
		{"drop-penultimate", 4, false, 1, 2, 0, 1, 0},
		// A corrupted frame dies at the ICRC gate, so recovery is
		// byte-for-byte the same as a drop of the same segment.
		{"corrupt-middle", 3, true, 1, 3, 0, 2, 0},
		// No cumulative ACK is outstanding mid-message (AckReq rides only
		// on the last segment), so the timeout replays all n segments and
		// the responder re-sees the first n-1 as duplicates.
		{"drop-last-timeout", 5, false, 0, 6, 1, 0, 5},
	}
	for ci, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, int64(20+ci), cfg, fabric.DirectCable10G())
			p.link.SetFaultsAtoB(killNth(tc.killIdx, tc.corrupt))
			data := make([]byte, n)
			rand.New(rand.NewSource(int64(40 + ci))).Read(data)
			completions := 0
			var got error
			p.eng.Schedule(0, func() {
				if err := p.a.PostWrite(1, 0, data, func(err error) {
					completions++
					got = err
				}); err != nil {
					t.Error(err)
				}
			})
			p.eng.Run()
			if completions != 1 || got != nil {
				t.Fatalf("completions=%d err=%v, want exactly one clean completion", completions, got)
			}
			if !bytes.Equal(p.hb.buf[:n], data) {
				t.Error("data mismatch after recovery")
			}
			sa, sb := p.a.Stats(), p.b.Stats()
			if sb.NaksSent != tc.naks {
				t.Errorf("NaksSent = %d, want %d", sb.NaksSent, tc.naks)
			}
			if sa.Retransmissions != tc.retrans {
				t.Errorf("Retransmissions = %d, want %d", sa.Retransmissions, tc.retrans)
			}
			if sa.Timeouts != tc.timeouts {
				t.Errorf("Timeouts = %d, want %d", sa.Timeouts, tc.timeouts)
			}
			if sb.RxOutOfOrder != tc.oooB {
				t.Errorf("responder RxOutOfOrder = %d, want %d", sb.RxOutOfOrder, tc.oooB)
			}
			if sb.RxDuplicates != tc.dupsB {
				t.Errorf("responder RxDuplicates = %d, want %d", sb.RxDuplicates, tc.dupsB)
			}
			wantDiscard := uint64(0)
			if tc.corrupt {
				wantDiscard = 1
			}
			if sb.RxDiscarded != wantDiscard {
				t.Errorf("responder RxDiscarded = %d, want %d", sb.RxDiscarded, wantDiscard)
			}
		})
	}
}

// TestReadRecoveryDropSchedule kills exactly one frame of a READ exchange
// — the request itself, or response segment j of m — and checks the
// timeout-driven re-request against the duplicate-READ cache arithmetic:
// a lost request is fresh on retry (cache stays cold), while a lost
// response puts the retry in the duplicate region, where it must be
// served from the cache and the requester must silently discard the
// j stale response segments it already consumed.
func TestReadRecoveryDropSchedule(t *testing.T) {
	cfg := Config10G()
	const segs = 4
	n := cfg.MTUPayload * segs
	cases := []struct {
		name     string
		killAtoB int    // frame index on the request direction, -1 for none
		killBtoA int    // frame index on the response direction, -1 for none
		dupHits  uint64 // duplicate-READ cache hits at the responder
		dupsA    uint64 // stale response segments discarded at the requester
		oooA     uint64 // post-gap response segments discarded at the requester
	}{
		{"drop-request", 0, -1, 0, 0, 0},
		{"drop-first-response", -1, 0, 1, 0, 3},
		{"drop-middle-response", -1, 1, 1, 1, 2},
		{"drop-last-response", -1, 3, 1, 3, 0},
	}
	for ci, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, int64(60+ci), cfg, fabric.DirectCable10G())
			if tc.killAtoB >= 0 {
				p.link.SetFaultsAtoB(killNth(tc.killAtoB, false))
			}
			if tc.killBtoA >= 0 {
				p.link.SetFaultsBtoA(killNth(tc.killBtoA, false))
			}
			src := make([]byte, n)
			rand.New(rand.NewSource(int64(80 + ci))).Read(src)
			copy(p.hb.buf[4096:], src)
			var got []byte
			completions := 0
			var cerr error
			p.eng.Schedule(0, func() {
				err := p.a.PostRead(1, 4096, 0, n, 0, func(off int, chunk []byte, ack func()) {
					got = append(got, chunk...)
					ack()
				}, func(err error) {
					completions++
					cerr = err
				})
				if err != nil {
					t.Error(err)
				}
			})
			p.eng.Run()
			if completions != 1 || cerr != nil {
				t.Fatalf("completions=%d err=%v, want exactly one clean completion", completions, cerr)
			}
			if !bytes.Equal(got, src) {
				t.Error("read returned wrong data after recovery")
			}
			sa, sb := p.a.Stats(), p.b.Stats()
			if sa.Timeouts != 1 {
				t.Errorf("Timeouts = %d, want 1 (single timeout-driven re-request)", sa.Timeouts)
			}
			if sa.Retransmissions != 1 {
				t.Errorf("Retransmissions = %d, want 1 (the re-request frame)", sa.Retransmissions)
			}
			if sb.DupReadCacheHits != tc.dupHits {
				t.Errorf("DupReadCacheHits = %d, want %d", sb.DupReadCacheHits, tc.dupHits)
			}
			if sa.RxDuplicates != tc.dupsA {
				t.Errorf("requester RxDuplicates = %d, want %d", sa.RxDuplicates, tc.dupsA)
			}
			if sa.RxOutOfOrder != tc.oooA {
				t.Errorf("requester RxOutOfOrder = %d, want %d", sa.RxOutOfOrder, tc.oooA)
			}
		})
	}
}
