package roce

import (
	"bytes"
	"testing"

	"strom/internal/packet"
	"strom/internal/sim"
)

// refPair wires two bare stacks the way benchmark/layers.go does: each
// transmit hands the very frame it was given to the peer's DeliverFrame
// after a 150 ns hop, with no link in between to copy it. Transmit takes
// the frame over, so this is a correct fabric. tapA and tapB, when set,
// see every frame A (B) transmits before the hop; returning false keeps
// it from the peer.
type refPair struct {
	*pair
	tapA, tapB func(f []byte) bool
}

func newRefPair(t *testing.T, cfg Config) *refPair {
	t.Helper()
	eng := sim.NewEngine(1)
	w := &refPair{pair: &pair{eng: eng, ha: newMemHandler(eng, 1<<24), hb: newMemHandler(eng, 1<<24)}}
	idA := Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.AddrOf(10, 0, 0, 1)}
	idB := Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.AddrOf(10, 0, 0, 2)}
	hop := func(tap *func([]byte) bool, to **Stack) func([]byte) {
		return func(f []byte) {
			if *tap != nil && !(*tap)(f) {
				return
			}
			eng.Schedule(150*sim.Nanosecond, func() { (*to).DeliverFrame(f) })
		}
	}
	w.a = NewStack(eng, cfg, idA, w.ha, hop(&w.tapA, &w.b))
	w.b = NewStack(eng, cfg, idB, w.hb, hop(&w.tapB, &w.a))
	if err := w.a.CreateQP(1, idB, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.b.CreateQP(2, idA, 1); err != nil {
		t.Fatal(err)
	}
	return w
}

// decodeFrame parses a frame a tap sees.
func decodeFrame(t *testing.T, f []byte) *packet.Packet {
	t.Helper()
	pkt, err := packet.Decode(f)
	if err != nil {
		t.Fatalf("tapped frame does not decode: %v", err)
	}
	return pkt
}

// scribblePool takes the frame buffers most recently returned to the
// pool, overwrites every byte of them and puts them back: a frame still
// in use that was released early ends up scribbled.
func scribblePool() {
	bufs := make([][]byte, 8)
	for i := range bufs {
		b := packet.GetBuf()
		b = b[:cap(b)]
		for j := range b {
			b[j] = 0xEE
		}
		bufs[i] = b
	}
	for _, b := range bufs {
		packet.PutBuf(b)
	}
}

// TestResendQueuedPastAckKeepsItsBytes is the fire drill for retained
// request frames on the TX side. A 3-segment WRITE's ACK is held back
// until its go-back-N resends are on their way: it lands as the first
// resend leaves, while the other two still wait in the TX pipeline (or,
// with DCQCN, for their paced slot). The ACK frees the pending entries
// and their frames go back to the pool, which is then scribbled. The
// queued resends must still reach the peer with the original bytes:
// they travel in copies of their own.
func TestResendQueuedPastAckKeepsItsBytes(t *testing.T) {
	for _, paced := range []bool{false, true} {
		name := "pipeline"
		if paced {
			name = "dcqcn-paced"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config10G()
			w := newRefPair(t, cfg)
			if paced {
				// Five CNPs cut the QP to 10/32 Gbit/s, ~40 µs a frame, and
				// the recovery timer never runs within the test.
				w.a.EnableDCQCN(DCQCNConfig{RateTimer: sim.Second})
				st, _ := w.a.st.get(1)
				for i := 0; i < 5; i++ {
					w.a.handleCNP(1, st)
				}
			}
			first := map[uint32][]byte{} // PSN -> bytes of its first transmission
			var heldAck []byte
			resent, mismatched := 0, 0
			w.tapB = func(f []byte) bool {
				if heldAck == nil && decodeFrame(t, f).BTH.Opcode == packet.OpAcknowledge {
					heldAck = f
					return false
				}
				return true
			}
			w.tapA = func(f []byte) bool {
				psn := decodeFrame(t, f).BTH.PSN
				orig, ok := first[psn]
				if !ok {
					first[psn] = bytes.Clone(f)
					return true
				}
				resent++
				if !bytes.Equal(f, orig) {
					mismatched++
				}
				if resent == 1 {
					w.a.DeliverFrame(heldAck)
				}
				return true
			}
			data := bytes.Repeat([]byte{0x5A}, 3*cfg.MTUPayload)
			completions, queuedAtAck, pacedAtAck := 0, 0, 0
			w.eng.Schedule(0, func() {
				err := w.a.PostWrite(1, 0, data, func(err error) {
					if err != nil {
						t.Errorf("WRITE: %v", err)
					}
					completions++
					queuedAtAck, pacedAtAck = w.a.txq.Len(), 3-resent-w.a.txq.Len()
					w.eng.Schedule(0, scribblePool)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			w.eng.Run()
			if completions != 1 || resent != 3 {
				t.Fatalf("%d completions, %d resends; want 1 and 3", completions, resent)
			}
			wantQueued, wantPaced := 2, 0
			if paced {
				wantQueued, wantPaced = 0, 2
			}
			if queuedAtAck != wantQueued || pacedAtAck != wantPaced {
				t.Fatalf("at the ACK %d resends were in the pipeline and %d paced, want %d and %d", queuedAtAck, pacedAtAck, wantQueued, wantPaced)
			}
			if mismatched != 0 {
				t.Errorf("%d of 3 resends reached the peer with bytes other than the original frame's", mismatched)
			}
		})
	}
}

// TestReadReRequestAfterEntryRetiredKeepsItsBytes is the fire drill for
// a READ's request frame, which its pending entry and its Multi-Queue
// element share. A READ is followed by a WRITE whose ACK retires the
// READ's pending entry; the READ's last response is lost, so the READ is
// re-requested on timeout from its element alone. The pool is scribbled
// after the ACK: the re-request must still carry the original bytes, and
// the READ must complete.
func TestReadReRequestAfterEntryRetiredKeepsItsBytes(t *testing.T) {
	cfg := Config10G()
	w := newRefPair(t, cfg)
	n := 3 * cfg.MTUPayload
	copy(w.hb.buf, bytes.Repeat([]byte{0xC3}, n))
	var req []byte
	reRequests, mismatched, pendingAtReRequest := 0, 0, -1
	w.tapA = func(f []byte) bool {
		if decodeFrame(t, f).BTH.Opcode != packet.OpReadRequest {
			return true
		}
		if req == nil {
			req = bytes.Clone(f)
			return true
		}
		reRequests++
		pendingAtReRequest = len(w.a.st.qps[1].pending)
		if !bytes.Equal(f, req) {
			mismatched++
		}
		return true
	}
	lost := false
	w.tapB = func(f []byte) bool {
		if !lost && decodeFrame(t, f).BTH.Opcode == packet.OpReadRespLast {
			lost = true
			packet.PutBuf(f)
			return false
		}
		return true
	}
	got := make([]byte, n)
	var readErr error
	readDone, writeDone := 0, 0
	w.eng.Schedule(0, func() {
		sink := func(off int, chunk []byte, ack func()) {
			copy(got[off:], chunk)
			ack()
		}
		if _, err := w.a.PostRead(1, 0, 0, n, sink, func(err error) { readErr = err; readDone++ }); err != nil {
			t.Fatal(err)
		}
		err := w.a.PostWrite(1, 1<<20, make([]byte, 64), func(err error) {
			if err != nil {
				t.Errorf("WRITE: %v", err)
			}
			writeDone++
			w.eng.Schedule(0, scribblePool)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	w.eng.Run()
	if !lost || writeDone != 1 || reRequests == 0 {
		t.Fatalf("lost=%v, %d WRITE completions, %d re-requests; want a lost response, 1, and at least 1", lost, writeDone, reRequests)
	}
	if pendingAtReRequest != 0 {
		t.Fatalf("%d entries pending at the re-request, want 0 (the READ's retired)", pendingAtReRequest)
	}
	if mismatched != 0 {
		t.Errorf("%d of %d re-requests carried bytes other than the original request's", mismatched, reRequests)
	}
	if readDone != 1 || readErr != nil || !bytes.Equal(got, w.hb.buf[:n]) {
		t.Errorf("READ completed %d times (err %v), data intact %v; want once, nil, true", readDone, readErr, bytes.Equal(got, w.hb.buf[:n]))
	}
}

// TestPeerTakesFramesByReference runs WRITE loops over refPair, whose
// peer receives and recycles the sender's own frame buffer: correct
// because transmit hands the frame over and a retained request frame
// leaves as a pooled copy. Were either side to release or reuse a frame
// it had handed over, the peer would see a foreign frame, discard it on
// its ICRC, and the loop would retransmit or time out.
func TestPeerTakesFramesByReference(t *testing.T) {
	for _, c := range []struct {
		name            string
		size, window, n int
	}{
		{"64B", 64, 16, 2000},
		{"64KiB", 64 << 10, 4, 64},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newRefPair(t, Config10G())
			data := make([]byte, c.size)
			for i := range data {
				data[i] = byte(i*7 + 1)
			}
			posted, completed := 0, 0
			var post func()
			done := func(err error) {
				if err != nil {
					t.Errorf("WRITE %d: %v", completed, err)
				}
				completed++
				post()
			}
			post = func() {
				if posted == c.n {
					return
				}
				posted++
				if err := w.a.PostWrite(1, 0, data, done); err != nil {
					t.Error(err)
				}
			}
			w.eng.Schedule(0, func() {
				for i := 0; i < c.window; i++ {
					post()
				}
			})
			w.eng.Run()
			if completed != c.n {
				t.Fatalf("completed %d/%d WRITEs", completed, c.n)
			}
			for _, s := range []*Stack{w.a, w.b} {
				if st := s.Stats(); st.Retransmissions != 0 || st.Timeouts != 0 || st.RxDiscarded != 0 {
					t.Errorf("%d retransmissions, %d timeouts, %d discards; want none", st.Retransmissions, st.Timeouts, st.RxDiscarded)
				}
			}
			if !bytes.Equal(w.hb.buf[:c.size], data) {
				t.Error("the peer's memory does not hold the WRITE's data")
			}
		})
	}
}
