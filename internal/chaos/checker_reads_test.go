package chaos_test

import (
	"testing"

	"strom/internal/chaos"
	"strom/internal/packet"
	"strom/internal/roce"
	"strom/internal/sim"
)

// Invariant 5's pins age out at the responder's re-execution window
// (8*ReadDepthPerQP PSNs behind the expected PSN), driving the Observer
// interface directly.

// freshRead reports a fresh READ of npsn PSNs at psn, served with sum.
func freshRead(c *chaos.Checker, psn, npsn uint32, sum uint64) {
	c.RespExec(1, psn, npsn, packet.OpReadRequest, false)
	c.RespReadData(1, psn, sum, 64)
}

// A READ whose PSN comes round again after a 24-bit wrap is a new READ,
// not a duplicate of the one that held the PSN 2^24 PSNs earlier; one
// inside the window is still held to its pin.
func TestCheckerReadPinsAcrossPSNWrap(t *testing.T) {
	c := newChecker()
	const step = 1 << 20
	psn := uint32(0xFFFF00) // near the wrap from the start
	for i := 0; i < 1<<24/step; i++ {
		freshRead(c, psn, step, uint64(i))
		psn = (psn + step) & 0xFFFFFF
	}
	// psn is back where the first READ was anchored: serve it anew.
	freshRead(c, psn, 1, 0xBEEF)
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("a READ a whole wrap later was compared against the old one: %v", v)
	}
	c.RespExec(1, psn, 0, packet.OpReadRequest, true)
	c.RespReadData(1, psn, 0xDEAD, 64)
	assertViolation(t, c, "different payload")
}

// Pins stay bounded over a long run of READs: at most one per PSN of the
// window.
func TestCheckerReadPinsBounded(t *testing.T) {
	c := newChecker()
	window := 8 * roce.Config10G().ReadDepthPerQP
	most := 0
	for psn := uint32(0); psn < 100_000; psn++ {
		freshRead(c, psn&0xFFFFFF, 1, uint64(psn))
		most = max(most, c.Pins())
	}
	if most > window+1 {
		t.Fatalf("the checker held %d READ pins, want at most %d (the window)", most, window+1)
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("fresh READs flagged: %v", v)
	}
}

// A duplicate READ re-executed at the window's edge is legal; one PSN
// further it is a violation.
func TestCheckerFlagsDupReadOutsideWindow(t *testing.T) {
	window := uint32(8 * roce.Config10G().ReadDepthPerQP)
	c := newChecker()
	freshRead(c, 0, 1, 7)
	freshRead(c, 1, 1, 8)
	for psn := uint32(2); psn <= window; psn++ {
		c.RespExec(1, psn, 1, packet.OpWriteOnly, false)
	}
	c.RespExec(1, 1, 0, packet.OpReadRequest, true) // window behind ePSN
	c.RespReadData(1, 1, 8, 64)
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("a duplicate READ inside the window flagged: %v", v)
	}
	c.RespExec(1, 0, 0, packet.OpReadRequest, true) // window+1 behind
	assertViolation(t, c, "outside the re-execution window")
}

// zeroResponder serves every READ at once with zeros.
type zeroResponder struct{}

func (zeroResponder) HandleWrite(uint32, uint64, []byte, bool) {}
func (zeroResponder) HandleReadRequest(_ uint32, _ uint64, n int, deliver func([]byte, error)) {
	deliver(make([]byte, n), nil)
}
func (zeroResponder) HandleRPCParams(uint32, uint64, []byte) error      { return nil }
func (zeroResponder) HandleRPCWrite(uint32, uint64, []byte, bool) error { return nil }

// The window check fires on a real responder. The stack keeps sixteen
// READs per QP, so it re-executes a duplicate READ up to 128 PSNs behind
// its expected PSN. A checker told the stack's own depth watches it
// re-execute one 20 PSNs behind, and skip one 129 behind, and flags
// nothing; a checker told the QP keeps one READ (a window of 8 PSNs)
// flags the re-execution 20 behind.
func TestCheckerWindowFireDrill(t *testing.T) {
	depth := roce.Config10G().ReadDepthPerQP
	for _, tc := range []struct {
		checkerDepth int
		behind       uint32
		hit, flagged bool
	}{
		{checkerDepth: depth, behind: 20, hit: true},
		{checkerDepth: depth, behind: uint32(8*depth + 1)},
		{checkerDepth: 1, behind: 20, hit: true, flagged: true},
	} {
		eng := sim.NewEngine(1)
		cfg := roce.Config10G()
		s := roce.NewStack(eng, cfg, roce.Identity{}, zeroResponder{}, packet.PutBuf)
		if err := s.CreateQP(1, roce.Identity{}, 1); err != nil {
			t.Fatal(err)
		}
		ckCfg := cfg
		ckCfg.ReadDepthPerQP = tc.checkerDepth
		c := chaos.NewChecker("B", eng, ckCfg)
		s.SetObserver(c)
		var pkt packet.Packet
		deliver := func(p *packet.Packet) {
			s.DeliverFrame(p.Encode())
			eng.Run()
		}
		read := packet.RETH{DMALength: 64}
		deliver(packet.FillReadRequest(&pkt, 1, 0, read))
		for psn := uint32(1); psn < tc.behind; psn++ {
			deliver(packet.FillSegment(&pkt, packet.KindWrite, 1, psn, packet.RETH{DMALength: 8}, make([]byte, 8), cfg.MTUPayload, 0, 1))
		}
		deliver(packet.FillReadRequest(&pkt, 1, 0, read))
		if v := c.Violations(); tc.flagged {
			assertViolation(t, c, "outside the re-execution window of 8")
		} else if len(v) != 0 {
			t.Errorf("checker at depth %d, duplicate %d behind: %v", tc.checkerDepth, tc.behind, v)
		}
		if hit := s.Stats().DupReadCacheHits == 1; hit != tc.hit {
			t.Errorf("duplicate READ %d behind: re-executed %v, want %v", tc.behind, hit, tc.hit)
		}
	}
}
