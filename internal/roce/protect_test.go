package roce

import (
	"errors"
	"testing"

	"strom/internal/fabric"
	"strom/internal/mr"
	"strom/internal/packet"
	"strom/internal/sim"
)

// validatingHandler backs the responder with a real MR table, the way
// the core NIC does: it implements AccessValidator on top of the plain
// flat-memory handler, so NewStack discovers the hook by type assertion.
type validatingHandler struct {
	*memHandler
	tbl *mr.Table
}

func (h *validatingHandler) ValidateRemote(qpn uint32, op packet.Opcode, reth packet.RETH) error {
	need := mr.AccessRemoteWrite
	if op == packet.OpReadRequest {
		need = mr.AccessRemoteRead
	}
	if f := h.tbl.CheckRemote(reth.RKey, reth.VirtualAddress, uint64(reth.DMALength), need); f != nil {
		return f
	}
	return nil
}

// postExpiring posts with post and books the message's Expire at
// deadline, cancelled when the message completes first: the one deadline
// a NIC keeps for a verb. done sees the completion.
func postExpiring(eng *sim.Engine, deadline sim.Time, done func(error), post func(done func(error)) (*Message, error)) error {
	var ev sim.Event
	m, err := post(func(err error) {
		ev.Cancel()
		done(err)
	})
	if err == nil {
		ev = eng.ScheduleAt(deadline, m.Expire)
	}
	return err
}

// vpair is a testbed whose responder (B) validates against an MR table
// with a full-access region, a read-only region and a write-only region.
type vpair struct {
	*pair
	tbl        *mr.Table
	hbv        *validatingHandler
	rw, ro, wo *mr.Region
}

func newValidatingPair(t *testing.T, seed int64) *vpair {
	t.Helper()
	eng := sim.NewEngine(seed)
	ha := newMemHandler(eng, 1<<24)
	hbv := &validatingHandler{memHandler: newMemHandler(eng, 1<<24), tbl: mr.NewTable()}
	idA := Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.AddrOf(10, 0, 0, 1)}
	idB := Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.AddrOf(10, 0, 0, 2)}
	var link *fabric.Link
	a := NewStack(eng, Config10G(), idA, ha, func(f []byte) { link.SendFromA(f) })
	b := NewStack(eng, Config10G(), idB, hbv, func(f []byte) { link.SendFromB(f) })
	link = fabric.NewLink(eng, fabric.DirectCable10G(), a, b)
	if err := a.CreateQP(1, idB, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateQP(2, idA, 1); err != nil {
		t.Fatal(err)
	}
	vp := &vpair{pair: &pair{eng: eng, a: a, b: b, ha: ha, hb: hbv.memHandler, link: link}, tbl: hbv.tbl, hbv: hbv}
	var err error
	if vp.rw, err = vp.tbl.Register(0x10000, 1<<20, mr.AccessFull); err != nil {
		t.Fatal(err)
	}
	if vp.ro, err = vp.tbl.Register(0x200000, 1<<20, mr.AccessRemoteRead|mr.AccessLocal); err != nil {
		t.Fatal(err)
	}
	if vp.wo, err = vp.tbl.Register(0x400000, 1<<20, mr.AccessRemoteWrite|mr.AccessLocal); err != nil {
		t.Fatal(err)
	}
	return vp
}

// TestResponderNAKMatrix drives one forged request per violation class
// through the responder and asserts the full NAK contract for each:
// exactly one SynNAKRemoteAccess on the wire, the handler never touched,
// the fault counted under the right class, the requester's QP in ERROR
// with a typed error — and, after a reconnect, a legitimate request on
// the same QP succeeding (the NAK poisoned the connection, not the
// protection state).
func TestResponderNAKMatrix(t *testing.T) {
	type forged struct {
		va   uint64
		rkey uint32
		n    int
		read bool
	}
	cases := []struct {
		name  string
		class mr.Class
		forge func(p *vpair) forged
	}{
		{"bad rkey", mr.ClassBadRKey, func(p *vpair) forged {
			return forged{va: p.rw.Base(), rkey: 0xDEAD00, n: 64}
		}},
		{"stale epoch", mr.ClassStaleEpoch, func(p *vpair) forged {
			return forged{va: p.rw.Base(), rkey: p.rw.RKey() ^ 0x01, n: 64}
		}},
		{"out of bounds", mr.ClassOutOfBounds, func(p *vpair) forged {
			return forged{va: p.rw.Base() + p.rw.Size() - 64, rkey: p.rw.RKey(), n: 1 << 12}
		}},
		{"va+len wrap", mr.ClassOutOfBounds, func(p *vpair) forged {
			return forged{va: ^uint64(0) - 16, rkey: 0, n: 64}
		}},
		{"write to read-only region", mr.ClassPermission, func(p *vpair) forged {
			return forged{va: p.ro.Base(), rkey: p.ro.RKey(), n: 64}
		}},
		{"read from write-only region", mr.ClassPermission, func(p *vpair) forged {
			return forged{va: p.wo.Base(), rkey: p.wo.RKey(), n: 64, read: true}
		}},
		{"unregistered address", mr.ClassUnregistered, func(p *vpair) forged {
			return forged{va: 1 << 40, rkey: 0, n: 64}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newValidatingPair(t, 7)
			f := tc.forge(p)
			var opErr error
			completions := 0
			p.eng.Schedule(0, func() {
				deadline := p.eng.Now().Add(2 * sim.Millisecond)
				err := postExpiring(p.eng, deadline, func(err error) { opErr = err; completions++ }, func(done func(error)) (*Message, error) {
					if f.read {
						return p.a.PostRead(1, f.va, f.rkey, f.n, func(off int, chunk []byte, ack func()) { ack() }, done)
					}
					return p.a.PostWriteStream(1, f.va, f.rkey, f.n, make([]byte, f.n), done)
				})
				if err != nil {
					t.Errorf("post: %v", err)
				}
			})
			p.eng.Run()

			if completions != 1 {
				t.Fatalf("completions = %d, want exactly 1", completions)
			}
			if !errors.Is(opErr, ErrQPError) || !errors.Is(opErr, ErrRemoteAccess) {
				t.Fatalf("completion error = %v, want ErrQPError wrapping ErrRemoteAccess", opErr)
			}
			if got := p.b.Stats().NaksRemoteAccess; got != 1 {
				t.Errorf("NaksRemoteAccess = %d, want 1", got)
			}
			if p.hbv.writeSegs != 0 {
				t.Errorf("handler saw %d write segments, want 0 (no DMA on violation)", p.hbv.writeSegs)
			}
			if got := p.tbl.FailCount(tc.class); got != 1 {
				t.Errorf("FailCount(%v) = %d, want 1", tc.class, got)
			}
			for c := mr.Class(0); c < mr.NumClasses; c++ {
				if c != tc.class && p.tbl.FailCount(c) != 0 {
					t.Errorf("FailCount(%v) = %d, want 0", c, p.tbl.FailCount(c))
				}
			}
			if st, _ := p.a.QPStateOf(1); st != QPStateError {
				t.Errorf("requester QP state = %v, want ERROR", st)
			}

			// The NAK killed the connection, not the protection domain: a
			// reconnected QP can use the region with a valid key.
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
			var okErr error = errors.New("never completed")
			p.eng.Schedule(0, func() {
				err := postExpiring(p.eng, p.eng.Now().Add(2*sim.Millisecond), func(err error) { okErr = err }, func(done func(error)) (*Message, error) {
					return p.a.PostWriteStream(1, p.rw.Base(), p.rw.RKey(), 5, []byte("legit"), done)
				})
				if err != nil {
					t.Errorf("post after reconnect: %v", err)
				}
			})
			p.eng.Run()
			if okErr != nil {
				t.Fatalf("legitimate write after reconnect: %v", okErr)
			}
			if p.hbv.writeSegs == 0 {
				t.Errorf("legitimate write never reached the handler")
			}
		})
	}
}

// TestDupReadCacheRevalidates pins the duplicate-READ hole: a READ
// served once is replayed from the recent-read cache on a duplicate
// PSN, and the replay must re-validate with the original rkey — a
// region deregistered since the first execution yields a NAK, not a
// ghost of dead memory.
func TestDupReadCacheRevalidates(t *testing.T) {
	p := newValidatingPair(t, 9)
	readDone := 0
	p.eng.Schedule(0, func() {
		sink := func(off int, chunk []byte, ack func()) { ack() }
		err := postExpiring(p.eng, p.eng.Now().Add(2*sim.Millisecond), func(err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			readDone++
		}, func(done func(error)) (*Message, error) {
			return p.a.PostRead(1, p.rw.Base(), p.rw.RKey(), 64, sink, done)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	p.eng.Run()
	if readDone != 1 {
		t.Fatalf("read completed %d times", readDone)
	}
	if err := p.tbl.Deregister(p.rw); err != nil {
		t.Fatal(err)
	}
	// Replay the first READ request verbatim: PSN 0 is now a duplicate,
	// so the responder serves it from the recent-read cache — which must
	// re-validate the stored rkey against the (now dead) region.
	req := packet.Packet{
		BTH:  packet.BTH{Opcode: packet.OpReadRequest, DestQP: 2, PSN: 0},
		RETH: &packet.RETH{VirtualAddress: p.rw.Base(), RKey: p.rw.RKey(), DMALength: 64},
	}
	frame := req.Encode()
	p.eng.Schedule(0, func() { p.link.SendFromA(frame) })
	p.eng.Run()
	if got := p.b.Stats().NaksRemoteAccess; got != 1 {
		t.Errorf("NaksRemoteAccess after dup replay = %d, want 1", got)
	}
	if got := p.tbl.FailCount(mr.ClassBadRKey); got != 1 {
		t.Errorf("FailCount(bad_rkey) = %d, want 1 (dead region's key)", got)
	}
}

// FuzzRETHValidation throws arbitrary (va, rkey, length, direction)
// RETH combinations at the validating responder and checks the
// protection dichotomy: the stack never panics, the verb completes
// exactly once, and a successful completion implies the MR table really
// does grant that exact access — no false accepts, ever.
func FuzzRETHValidation(f *testing.F) {
	f.Add(uint64(0x10000), uint32(0), uint32(64), false)        // wildcard into rw
	f.Add(uint64(0x10000), uint32(0xDEAD00), uint32(64), false) // bad rkey
	f.Add(uint64(0x200000), uint32(0), uint32(64), false)       // write to ro
	f.Add(uint64(0x400000), uint32(0), uint32(64), true)        // read from wo
	f.Add(uint64(1<<40), uint32(0), uint32(64), false)          // unregistered
	f.Add(^uint64(0)-16, uint32(0), uint32(4096), true)         // va+len wrap
	f.Fuzz(func(t *testing.T, va uint64, rkey uint32, n uint32, read bool) {
		nb := int(n%(64<<10)) + 1
		p := newValidatingPair(t, 3)
		completions := 0
		var opErr error
		p.eng.Schedule(0, func() {
			deadline := p.eng.Now().Add(5 * sim.Millisecond)
			err := postExpiring(p.eng, deadline, func(err error) { opErr = err; completions++ }, func(done func(error)) (*Message, error) {
				if read {
					return p.a.PostRead(1, va, rkey, nb, func(off int, chunk []byte, ack func()) { ack() }, done)
				}
				return p.a.PostWriteStream(1, va, rkey, nb, make([]byte, nb), done)
			})
			if err != nil {
				// Rejected at post time: no completion will come.
				completions = -1
			}
		})
		p.eng.Run()
		if completions == -1 {
			return
		}
		if completions != 1 {
			t.Fatalf("completions = %d, want exactly 1", completions)
		}
		if opErr == nil {
			need := mr.AccessRemoteWrite
			if read {
				need = mr.AccessRemoteRead
			}
			if fault := p.tbl.Probe(va, uint64(nb), need); fault != nil {
				t.Fatalf("request completed OK but the table rejects it: %v (false accept)", fault)
			}
		} else if !errors.Is(opErr, ErrRemoteAccess) && !errors.Is(opErr, sim.ErrDeadlineExceeded) && !errors.Is(opErr, ErrQPError) {
			t.Fatalf("unexpected error class: %v", opErr)
		}
	})
}
