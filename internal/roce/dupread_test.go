package roce

import (
	"testing"

	"strom/internal/packet"
	"strom/internal/sim"
)

// readRecorder is a responder that notes the READ it was last asked to
// serve and the key it was validated under, and never delivers: the
// recent-read table is under test, not the serving.
type readRecorder struct {
	va    uint64
	n     int
	rkey  uint32
	reads int
}

func (h *readRecorder) HandleWrite(uint32, uint64, []byte, bool) {}

func (h *readRecorder) HandleReadRequest(_ uint32, va uint64, n int, _ func([]byte, error)) {
	h.va, h.n = va, n
	h.reads++
}

func (h *readRecorder) HandleRPCParams(uint32, uint64, []byte) error      { return nil }
func (h *readRecorder) HandleRPCWrite(uint32, uint64, []byte, bool) error { return nil }

func (h *readRecorder) ValidateRemote(_ uint32, _ packet.Opcode, reth packet.RETH) error {
	h.rkey = reth.RKey
	return nil
}

// mapReads is the reference recent-read table: a map from request PSN,
// swept of the entries more than the window behind the expected PSN
// whenever it outgrows twice the window, with the window's age check at
// lookup — the table the PSN ring replaced.
type mapReads struct {
	m      map[uint32]packet.RETH
	window int32
}

func (r *mapReads) put(ePSN uint32, reth packet.RETH) {
	r.m[ePSN] = reth
	if len(r.m) > 2*int(r.window) {
		for k := range r.m {
			if psnDiff(ePSN, k) > r.window {
				delete(r.m, k)
			}
		}
	}
}

func (r *mapReads) get(psn uint32, behind int32) (packet.RETH, bool) {
	reth, ok := r.m[psn]
	return reth, ok && behind <= r.window
}

// liveReads counts the slots of a recent-read ring that hold a READ.
func liveReads(r recentReads) int {
	n := 0
	for _, rr := range r {
		if rr.tag != 0 {
			n++
		}
	}
	return n
}

// FuzzDupReadTableMatchesMap runs the responder's duplicate-READ handling
// against the map it replaced. The program executes READs of one to
// twice-the-window PSNs at the expected PSN, skips the expected PSN ahead
// for other traffic (by up to 65 535 PSNs, so that a program crosses the
// 24-bit wrap), sends duplicate READs — at the PSN of a recent READ,
// inside or outside the window, or at any age up to three windows — and
// resets the QP, which restarts its PSNs at a point near the wrap. Every
// duplicate must hit or miss as it does in the map, and a hit must serve
// the same (va, len) under the same rkey. A program never moves a QP's
// PSNs a whole wrap between resets: past that the map could still hold a
// READ one wrap old, which the ring has long overwritten.
func FuzzDupReadTableMatchesMap(f *testing.F) {
	f.Add(uint8(0), uint32(0), []byte{0, 0, 3, 2, 0, 0, 0, 1, 9, 2, 0, 0, 2, 1, 1})
	f.Add(uint8(3), uint32(psnMask-40), []byte{0, 0, 7, 0, 0, 1, 1, 0, 20, 2, 1, 0, 0, 0, 0, 2, 0, 0, 2, 2, 0, 3, 0, 9, 2, 5, 5})
	f.Add(uint8(7), uint32(psnMask), []byte{0, 1, 200, 1, 255, 255, 0, 0, 1, 2, 0, 0, 2, 0, 1, 3, 0, 60, 0, 0, 0, 2, 0, 0})
	f.Add(uint8(1), uint32(5), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 31, 0, 2, 2, 0})
	f.Fuzz(func(t *testing.T, depth uint8, start uint32, program []byte) {
		if len(program) > 255 {
			program = program[:255] // 85 ops of at most 65 535 PSNs: less than a wrap
		}
		cfg := Config10G()
		cfg.ReadDepthPerQP = 1 + int(depth%8)
		window := readWindow(cfg)
		h := &readRecorder{}
		s := NewStack(sim.NewEngine(1), cfg, Identity{}, h, packet.PutBuf)
		if err := s.CreateQP(1, Identity{}, 1); err != nil {
			t.Fatal(err)
		}
		st := &s.st.qps[1]
		ref := mapReads{m: make(map[uint32]packet.RETH), window: window}
		var reads []uint32 // request PSNs of the READs executed since the last reset
		restart := func(at uint32) {
			st.ePSN = at & psnMask
			clear(ref.m)
			reads = reads[:0]
		}
		restart(start)
		var pkt packet.Packet
		for ; len(program) >= 3; program = program[3:] {
			op, x := program[0], int(program[1])<<8|int(program[2])
			switch op % 4 {
			case 0: // a READ at the expected PSN
				npsn := 1 + x%int(2*window)
				reth := packet.RETH{VirtualAddress: uint64(x) << 12, RKey: uint32(x) ^ 0x5a5a, DMALength: uint32(npsn*cfg.MTUPayload - x%cfg.MTUPayload)}
				ref.put(st.ePSN, reth)
				reads = append(reads, st.ePSN)
				before := h.reads
				s.handleRequest(1, st, packet.FillReadRequest(&pkt, 1, st.ePSN, reth))
				if h.reads != before+1 {
					t.Fatalf("READ at the expected PSN was not served")
				}
			case 1: // other traffic
				st.ePSN = psnAdd(st.ePSN, uint32(x))
			case 2: // a duplicate READ
				var psn uint32
				if x&1 == 0 && len(reads) > 0 {
					psn = reads[len(reads)-1-(x>>1)%len(reads)]
				} else {
					psn = psnAdd(st.ePSN, psnMask-uint32((x>>1)%int(3*window))) // up to three windows behind
				}
				behind := -psnDiff(psn, st.ePSN)
				if behind <= 0 {
					continue // not a duplicate: the READ skipped over it was never sent
				}
				want, wantHit := ref.get(psn, behind)
				*h = readRecorder{reads: h.reads}
				stats := s.stats
				s.handleRequest(1, st, packet.FillReadRequest(&pkt, 1, psn, packet.RETH{VirtualAddress: 1, RKey: 1, DMALength: 1}))
				hit := s.stats.DupReadCacheHits == stats.DupReadCacheHits+1
				if hit != wantHit || hit == (s.stats.DupReadCacheMiss == stats.DupReadCacheMiss+1) {
					t.Fatalf("duplicate READ at PSN %#x, %d behind: hit %v, the map's %v", psn, behind, hit, wantHit)
				}
				if hit && (h.va != want.VirtualAddress || h.n != int(want.DMALength) || h.rkey != want.RKey) {
					t.Fatalf("duplicate READ at PSN %#x re-served (va %#x, len %d, rkey %#x), want (%#x, %d, %#x)",
						psn, h.va, h.n, h.rkey, want.VirtualAddress, want.DMALength, want.RKey)
				}
			case 3: // a reset, landing near the wrap
				if err := s.ResetQP(1); err != nil {
					t.Fatal(err)
				}
				if n := liveReads(st.recentRds); n != 0 {
					t.Fatalf("%d recent READs survive a reset", n)
				}
				if err := s.ReconnectQP(1); err != nil {
					t.Fatal(err)
				}
				restart(psnMask - uint32(x))
			}
		}
	})
}
