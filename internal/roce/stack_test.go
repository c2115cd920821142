package roce

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"strom/internal/fabric"
	"strom/internal/packet"
	"strom/internal/sim"
)

// memHandler is a test responder backing HandleWrite/HandleReadRequest
// with a flat byte array and recording RPC deliveries.
type memHandler struct {
	eng       *sim.Engine
	buf       []byte
	readDelay sim.Duration
	// With pieceGap set, a READ's data is delivered an MTU payload
	// (pieceLen) at a time, one piece every pieceGap, and the serving
	// fails after failAfter pieces (0: never).
	pieceGap  sim.Duration
	pieceLen  int
	failAfter int
	writeSegs int
	writeMsgs int
	rpcParams []string // "op:params"
	rpcData   map[uint64][]byte
	rpcLasts  int
	rpcErr    error
}

func newMemHandler(eng *sim.Engine, size int) *memHandler {
	return &memHandler{eng: eng, buf: make([]byte, size), rpcData: make(map[uint64][]byte), readDelay: 1500 * sim.Nanosecond}
}

func (h *memHandler) HandleWrite(qpn uint32, va uint64, data []byte, last bool) {
	copy(h.buf[va:], data)
	h.writeSegs++
	if last {
		h.writeMsgs++
	}
}

func (h *memHandler) HandleReadRequest(qpn uint32, va uint64, n int, deliver func([]byte, error)) {
	data := append([]byte(nil), h.buf[va:va+uint64(n)]...)
	if h.pieceGap == 0 {
		h.eng.Schedule(h.readDelay, func() { deliver(data, nil) })
		return
	}
	for i, off := 0, 0; off < n; i, off = i+1, off+h.pieceLen {
		at := h.readDelay + sim.Duration(i)*h.pieceGap
		if h.failAfter > 0 && i == h.failAfter {
			h.eng.Schedule(at, func() { deliver(nil, errors.New("page gone")) })
			return
		}
		h.eng.Schedule(at, func() { deliver(data[off:min(off+h.pieceLen, n)], nil) })
	}
}

func (h *memHandler) HandleRPCParams(qpn uint32, rpcOp uint64, params []byte) error {
	if h.rpcErr != nil {
		return h.rpcErr
	}
	h.rpcParams = append(h.rpcParams, fmt.Sprintf("%d:%s", rpcOp, params))
	return nil
}

func (h *memHandler) HandleRPCWrite(qpn uint32, rpcOp uint64, data []byte, last bool) error {
	if h.rpcErr != nil {
		return h.rpcErr
	}
	h.rpcData[rpcOp] = append(h.rpcData[rpcOp], data...)
	if last {
		h.rpcLasts++
	}
	return nil
}

type pair struct {
	eng    *sim.Engine
	a, b   *Stack
	ha, hb *memHandler
	link   *fabric.Link
}

// newPair wires two stacks A<->B with QP 1 on A connected to QP 2 on B.
func newPair(t *testing.T, seed int64, cfg Config, linkCfg fabric.LinkConfig) *pair {
	t.Helper()
	eng := sim.NewEngine(seed)
	ha := newMemHandler(eng, 1<<24)
	hb := newMemHandler(eng, 1<<24)
	idA := Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.AddrOf(10, 0, 0, 1)}
	idB := Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.AddrOf(10, 0, 0, 2)}
	var link *fabric.Link
	a := NewStack(eng, cfg, idA, ha, func(f []byte) { link.SendFromA(f) })
	b := NewStack(eng, cfg, idB, hb, func(f []byte) { link.SendFromB(f) })
	link = fabric.NewLink(eng, linkCfg, a, b)
	if err := a.CreateQP(1, idB, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateQP(2, idA, 1); err != nil {
		t.Fatal(err)
	}
	return &pair{eng: eng, a: a, b: b, ha: ha, hb: hb, link: link}
}

func TestWriteSinglePacket(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	data := []byte("one-sided write payload")
	var completed bool
	var at sim.Time
	p.eng.Schedule(0, func() {
		err := p.a.PostWrite(1, 4096, data, func(err error) {
			if err != nil {
				t.Errorf("completion: %v", err)
			}
			completed = true
			at = p.eng.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	p.eng.Run()
	if !completed {
		t.Fatal("write never completed")
	}
	if !bytes.Equal(p.hb.buf[4096:4096+len(data)], data) {
		t.Error("data not written at remote VA")
	}
	if p.hb.writeMsgs != 1 {
		t.Errorf("writeMsgs = %d", p.hb.writeMsgs)
	}
	// Completion requires a full round trip: > 2 us, < 20 us at 10G.
	us := sim.Duration(at).Microseconds()
	if us < 1 || us > 20 {
		t.Errorf("write RTT = %.2f us", us)
	}
}

func TestWriteMultiPacketOrderAndAddresses(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	n := Config10G().MTUPayload*3 + 123
	data := make([]byte, n)
	rand.New(rand.NewSource(2)).Read(data)
	done := false
	p.eng.Schedule(0, func() {
		p.a.PostWrite(1, 0, data, func(err error) {
			if err != nil {
				t.Errorf("completion: %v", err)
			}
			done = true
		})
	})
	p.eng.Run()
	if !done {
		t.Fatal("no completion")
	}
	if !bytes.Equal(p.hb.buf[:n], data) {
		t.Error("multi-packet payload mismatch")
	}
	if p.hb.writeSegs != 4 || p.hb.writeMsgs != 1 {
		t.Errorf("segs=%d msgs=%d", p.hb.writeSegs, p.hb.writeMsgs)
	}
}

func TestWritePipelining(t *testing.T) {
	// Several writes posted back to back all complete, in order.
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	var order []int
	p.eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			i := i
			data := []byte{byte(i)}
			p.a.PostWrite(1, uint64(i), data, func(err error) {
				if err != nil {
					t.Errorf("write %d: %v", i, err)
				}
				order = append(order, i)
			})
		}
	})
	p.eng.Run()
	if len(order) != 10 {
		t.Fatalf("completions = %d", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Errorf("completion order = %v", order)
			break
		}
	}
	for i := 0; i < 10; i++ {
		if p.hb.buf[i] != byte(i) {
			t.Errorf("buf[%d] = %d", i, p.hb.buf[i])
		}
	}
}

func TestReadSinglePacket(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	want := []byte("remote data to fetch")
	copy(p.hb.buf[512:], want)
	var got []byte
	completed := false
	p.eng.Schedule(0, func() {
		_, err := p.a.PostRead(1, 512, 0, len(want), func(off int, chunk []byte, ack func()) {
			if off != len(got) {
				t.Errorf("offset %d, want %d", off, len(got))
			}
			got = append(got, chunk...)
			ack()
		}, func(err error) {
			if err != nil {
				t.Errorf("completion: %v", err)
			}
			completed = true
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	p.eng.Run()
	if !completed {
		t.Fatal("read never completed")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("got %q", got)
	}
}

func TestReadMultiPacket(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	n := Config10G().MTUPayload*2 + 77
	want := make([]byte, n)
	rand.New(rand.NewSource(3)).Read(want)
	copy(p.hb.buf, want)
	got := make([]byte, 0, n)
	completed := false
	p.eng.Schedule(0, func() {
		p.a.PostRead(1, 0, 0, n, func(off int, chunk []byte, ack func()) {
			got = append(got, chunk...)
			ack()
		}, func(err error) { completed = err == nil })
	})
	p.eng.Run()
	if !completed || !bytes.Equal(got, want) {
		t.Errorf("completed=%v len(got)=%d", completed, len(got))
	}
}

func TestMultipleOutstandingReads(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	for i := 0; i < 8; i++ {
		p.hb.buf[i*100] = byte(i + 1)
	}
	var results []byte
	completions := 0
	p.eng.Schedule(0, func() {
		for i := 0; i < 8; i++ {
			i := i
			_, err := p.a.PostRead(1, uint64(i*100), 0, 1, func(off int, chunk []byte, ack func()) {
				results = append(results, chunk[0])
				ack()
			}, func(err error) {
				if err != nil {
					t.Errorf("read %d: %v", i, err)
				}
				completions++
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	p.eng.Run()
	if completions != 8 {
		t.Fatalf("completions = %d", completions)
	}
	for i, v := range results {
		if v != byte(i+1) {
			t.Errorf("results = %v", results)
			break
		}
	}
}

func TestReadDepthLimit(t *testing.T) {
	cfg := Config10G()
	cfg.ReadDepthPerQP = 2
	p := newPair(t, 1, cfg, fabric.DirectCable10G())
	p.eng.Schedule(0, func() {
		for i := 0; i < 2; i++ {
			if _, err := p.a.PostRead(1, 0, 0, 1, nil, nil); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		if _, err := p.a.PostRead(1, 0, 0, 1, nil, nil); !errors.Is(err, ErrTooManyReads) {
			t.Errorf("third read err = %v", err)
		}
	})
	p.eng.Run()
}

func TestRPCParamsDelivery(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	ok := false
	p.eng.Schedule(0, func() {
		p.a.PostRPC(1, 42, []byte("get key=7"), func(err error) {
			if err != nil {
				t.Errorf("rpc: %v", err)
			}
			ok = true
		})
	})
	p.eng.Run()
	if !ok {
		t.Fatal("rpc not acknowledged")
	}
	if len(p.hb.rpcParams) != 1 || p.hb.rpcParams[0] != "42:get key=7" {
		t.Errorf("rpcParams = %v", p.hb.rpcParams)
	}
}

func TestRPCNoKernelNAK(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	p.hb.rpcErr = errors.New("no kernel")
	var got error
	done := false
	p.eng.Schedule(0, func() {
		p.a.PostRPC(1, 99, []byte("x"), func(err error) { got = err; done = true })
	})
	p.eng.Run()
	if !done {
		t.Fatal("no completion")
	}
	if !errors.Is(got, ErrRemoteInvalid) {
		t.Errorf("err = %v, want ErrRemoteInvalid", got)
	}
}

func TestRPCWriteStreaming(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	n := Config10G().MTUPayload*2 + 10
	data := make([]byte, n)
	rand.New(rand.NewSource(4)).Read(data)
	ok := false
	p.eng.Schedule(0, func() {
		p.a.PostRPCWriteStream(1, 7, len(data), data, func(err error) { ok = err == nil })
	})
	p.eng.Run()
	if !ok {
		t.Fatal("rpc write not acknowledged")
	}
	if !bytes.Equal(p.hb.rpcData[7], data) {
		t.Error("kernel stream mismatch")
	}
	if p.hb.rpcLasts != 1 {
		t.Errorf("lasts = %d", p.hb.rpcLasts)
	}
}

func TestLossRecoveryWrite(t *testing.T) {
	p := newPair(t, 99, Config10G(), fabric.DirectCable10G())
	p.link.SetFaultsAtoB(fabric.Coin{Rand: p.eng.Rand(), DropProb: 0.2})
	p.link.SetFaultsBtoA(fabric.Coin{Rand: p.eng.Rand(), DropProb: 0.2})
	n := Config10G().MTUPayload * 20
	data := make([]byte, n)
	rand.New(rand.NewSource(5)).Read(data)
	ok := false
	p.eng.Schedule(0, func() {
		p.a.PostWrite(1, 0, data, func(err error) {
			if err != nil {
				t.Errorf("completion: %v", err)
			}
			ok = true
		})
	})
	p.eng.Run()
	if !ok {
		t.Fatal("write never completed under loss")
	}
	if !bytes.Equal(p.hb.buf[:n], data) {
		t.Error("data corrupted under loss")
	}
	if p.a.Stats().Retransmissions == 0 {
		t.Error("no retransmissions recorded despite loss")
	}
}

func TestLossRecoveryRead(t *testing.T) {
	p := newPair(t, 123, Config10G(), fabric.DirectCable10G())
	p.link.SetFaultsBtoA(fabric.Coin{Rand: p.eng.Rand(), DropProb: 0.2})
	n := Config10G().MTUPayload * 10
	want := make([]byte, n)
	rand.New(rand.NewSource(6)).Read(want)
	copy(p.hb.buf, want)
	got := make([]byte, n)
	var hi int
	ok := false
	p.eng.Schedule(0, func() {
		p.a.PostRead(1, 0, 0, n, func(off int, chunk []byte, ack func()) {
			copy(got[off:], chunk)
			if off+len(chunk) > hi {
				hi = off + len(chunk)
			}
			ack()
		}, func(err error) {
			if err != nil {
				t.Errorf("completion: %v", err)
			}
			ok = true
		})
	})
	p.eng.Run()
	if !ok {
		t.Fatal("read never completed under loss")
	}
	if hi != n || !bytes.Equal(got, want) {
		t.Errorf("received %d/%d bytes correctly=%v", hi, n, bytes.Equal(got, want))
	}
}

func TestCorruptionRecovery(t *testing.T) {
	p := newPair(t, 77, Config10G(), fabric.DirectCable10G())
	p.link.SetFaultsAtoB(fabric.Coin{Rand: p.eng.Rand(), CorruptProb: 0.2})
	n := Config10G().MTUPayload * 10
	data := make([]byte, n)
	rand.New(rand.NewSource(7)).Read(data)
	ok := false
	p.eng.Schedule(0, func() {
		p.a.PostWrite(1, 0, data, func(err error) { ok = err == nil })
	})
	p.eng.Run()
	if !ok {
		t.Fatal("write never completed under corruption")
	}
	if !bytes.Equal(p.hb.buf[:n], data) {
		t.Error("corrupted data accepted")
	}
	if p.b.Stats().RxDiscarded == 0 {
		t.Error("no packets discarded despite corruption")
	}
}

func TestDuplicateWritesNotReExecuted(t *testing.T) {
	// Drop all ACKs for a while so A retransmits; B must not apply the
	// write twice.
	p := newPair(t, 11, Config10G(), fabric.DirectCable10G())
	p.link.SetOfflineBtoA(true)
	p.eng.Schedule(0, func() {
		p.a.PostWrite(1, 0, []byte{1, 2, 3}, nil)
	})
	// After a few timeouts, heal the reverse path.
	p.eng.Schedule(200*sim.Microsecond, func() {
		p.link.SetOfflineBtoA(false)
	})
	p.eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if p.hb.writeMsgs != 1 {
		t.Errorf("write executed %d times", p.hb.writeMsgs)
	}
	if p.b.Stats().RxDuplicates == 0 {
		t.Error("no duplicates seen at responder")
	}
}

func TestRetryExceededFails(t *testing.T) {
	cfg := Config10G()
	cfg.RetransTimeout = 5 * sim.Microsecond
	cfg.MaxRetries = 3
	p := newPair(t, 1, cfg, fabric.DirectCable10G())
	p.link.SetOfflineAtoB(true)
	var got error
	done := false
	p.eng.Schedule(0, func() {
		p.a.PostWrite(1, 0, []byte{1}, func(err error) { got = err; done = true })
	})
	p.eng.Run()
	if !done {
		t.Fatal("no completion")
	}
	if !errors.Is(got, ErrRetryExceeded) {
		t.Errorf("err = %v", got)
	}
}

func TestWriteThroughputNearLineRate(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	const total = 8 << 20
	data := make([]byte, 1<<20)
	var done sim.Time
	remaining := total / len(data)
	p.eng.Schedule(0, func() {
		for i := 0; i < total/len(data); i++ {
			p.a.PostWrite(1, uint64(i*len(data)), data, func(err error) {
				if err != nil {
					t.Error(err)
				}
				remaining--
				if remaining == 0 {
					done = p.eng.Now()
				}
			})
		}
	})
	p.eng.Run()
	gbps := float64(total) * 8 / sim.Duration(done).Seconds() / 1e9
	if gbps < 8.8 || gbps > 9.9 {
		t.Errorf("write throughput = %.2f Gbit/s, want ~9.4", gbps)
	}
}

func TestStackDeterminism(t *testing.T) {
	run := func() (Stats, Stats) {
		p := newPair(t, 42, Config10G(), fabric.DirectCable10G())
		p.link.SetFaultsAtoB(fabric.Coin{Rand: p.eng.Rand(), DropProb: 0.1})
		data := make([]byte, Config10G().MTUPayload*8)
		p.eng.Schedule(0, func() {
			p.a.PostWrite(1, 0, data, nil)
			p.a.PostRead(1, 0, 0, 4096, func(off int, chunk []byte, ack func()) { ack() }, nil)
		})
		p.eng.Run()
		return p.a.Stats(), p.b.Stats()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Errorf("non-deterministic: %+v vs %+v / %+v vs %+v", a1, a2, b1, b2)
	}
}

func TestUnknownQPDiscarded(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	pkt := &packet.Packet{
		DstMAC: p.b.Identity().MAC, SrcMAC: p.a.Identity().MAC,
		SrcIP: p.a.Identity().IP, DstIP: p.b.Identity().IP,
		BTH:     packet.BTH{Opcode: packet.OpWriteOnly, DestQP: 333, PSN: 0},
		RETH:    &packet.RETH{},
		Payload: []byte{1},
	}
	p.eng.Schedule(0, func() { p.link.SendFromA(pkt.Encode()) })
	p.eng.Run()
	if p.b.Stats().RxDiscarded != 1 {
		t.Errorf("discarded = %d", p.b.Stats().RxDiscarded)
	}
}

func TestPostToUnknownQPFails(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	if err := p.a.PostWrite(55, 0, []byte{1}, nil); !errors.Is(err, ErrQPNotCreated) {
		t.Errorf("err = %v", err)
	}
	if _, err := p.a.PostRead(55, 0, 0, 1, nil, nil); !errors.Is(err, ErrQPNotCreated) {
		t.Errorf("err = %v", err)
	}
	if _, err := p.a.PostRPC(55, 1, nil, nil); !errors.Is(err, ErrQPNotCreated) {
		t.Errorf("err = %v", err)
	}
}

func TestReadLatencyAboveWriteLatency(t *testing.T) {
	// Reads pay the remote fetch before any response; writes are posted.
	// Read latency must exceed write latency at equal payload (Fig. 5a).
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	var wLat, rLat sim.Duration
	p.eng.Schedule(0, func() {
		start := p.eng.Now()
		p.a.PostWrite(1, 0, make([]byte, 64), func(error) { wLat = p.eng.Now().Sub(start) })
	})
	p.eng.Schedule(sim.Millisecond, func() {
		start := p.eng.Now()
		p.a.PostRead(1, 0, 0, 64, func(off int, chunk []byte, ack func()) { ack() },
			func(error) { rLat = p.eng.Now().Sub(start) })
	})
	p.eng.Run()
	if wLat == 0 || rLat == 0 {
		t.Fatal("ops did not complete")
	}
	if rLat <= wLat {
		t.Errorf("read RTT %v <= write RTT %v", rLat, wLat)
	}
}
