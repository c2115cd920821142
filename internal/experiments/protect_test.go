package experiments

import (
	"errors"
	"strings"
	"testing"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/mr"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/testrig"
)

// TestNICNAKMatrix is the end-to-end companion of the roce-level NAK
// matrix: each violation class travels the full NIC path — doorbell,
// local payload DMA, wire, responder validation against the real MR
// table — and must come back as ErrQPError wrapping ErrRemoteAccess
// with the fault counted under the right class and no byte of the
// victim's memory touched.
func TestNICNAKMatrix(t *testing.T) {
	cases := []struct {
		name  string
		class mr.Class
		forge func(p *testrig.Pair, ro uint64, roKey uint32) (va uint64, rkey uint32, n int)
	}{
		{"bad rkey", mr.ClassBadRKey, func(p *testrig.Pair, ro uint64, roKey uint32) (uint64, uint32, int) {
			return uint64(p.BufB.Base()), 0xDEAD00, 64
		}},
		{"stale epoch", mr.ClassStaleEpoch, func(p *testrig.Pair, ro uint64, roKey uint32) (uint64, uint32, int) {
			return uint64(p.BufB.Base()), p.B.RegionFor(uint64(p.BufB.Base())).RKey() ^ 0x01, 64
		}},
		{"out of bounds", mr.ClassOutOfBounds, func(p *testrig.Pair, ro uint64, roKey uint32) (uint64, uint32, int) {
			return uint64(p.BufB.Base()) + uint64(p.BufB.Size()) - 64, p.B.RegionFor(uint64(p.BufB.Base())).RKey(), 1 << 12
		}},
		{"permission", mr.ClassPermission, func(p *testrig.Pair, ro uint64, roKey uint32) (uint64, uint32, int) {
			return ro, roKey, 64
		}},
		{"unregistered", mr.ClassUnregistered, func(p *testrig.Pair, ro uint64, roKey uint32) (uint64, uint32, int) {
			return 1 << 40, 0, 64
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pair, err := testrig.New10G(11)
			if err != nil {
				t.Fatal(err)
			}
			roBuf, err := pair.B.AllocBufferFlags(1<<20, mr.AccessRemoteRead)
			if err != nil {
				t.Fatal(err)
			}
			_, ca, cb := pair.ApplyChaos(chaos.Plan{})

			// Mark the victim's buffer so an illegal write would be visible.
			probe := []byte("untouchable")
			if err := pair.B.Memory().WriteVirt(pair.BufB.Base(), probe); err != nil {
				t.Fatal(err)
			}

			va, rkey, n := tc.forge(pair, uint64(roBuf.Base()), pair.B.RegionFor(uint64(roBuf.Base())).RKey())
			var opErr error
			pair.Eng.Go("attacker", func(p *sim.Process) {
				opErr = pair.A.Do(p, testrig.QPA, core.Verb{Op: core.OpWrite, LocalVA: uint64(pair.BufA.Base()), RemoteVA: va, Len: n, RKey: rkey, Deadline: p.Now().Add(2 * sim.Millisecond)})
			})
			pair.Run()

			if !errors.Is(opErr, roce.ErrQPError) || !errors.Is(opErr, roce.ErrRemoteAccess) {
				t.Fatalf("completion error = %v, want ErrQPError wrapping ErrRemoteAccess", opErr)
			}
			if got := pair.B.Stack().Stats().NaksRemoteAccess; got != 1 {
				t.Errorf("NaksRemoteAccess = %d, want 1", got)
			}
			if got := pair.B.MRTable().FailCount(tc.class); got != 1 {
				t.Errorf("FailCount(%v) = %d, want 1", tc.class, got)
			}
			got, err := pair.B.Memory().ReadVirt(pair.BufB.Base(), len(probe))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(probe) {
				t.Errorf("victim memory changed: %q", got)
			}
			if v := append(ca.Finish(), cb.Finish()...); len(v) > 0 {
				t.Errorf("invariant violations: %v", v)
			}
		})
	}
}

// TestSkipMRValidationTripsInvariant9 is the checker's own fire drill:
// with the deliberate SkipMRValidation debug fault armed on the victim,
// an out-of-bounds write sails through validation and the NIC issues
// the illegal DMA — which must trip exactly invariant 9 (the DMA-level
// protection guard) on the victim's checker and nothing else. This
// proves the guard watches the DMA engine itself, not the validator's
// claims: a validation bug cannot hide from it.
func TestSkipMRValidationTripsInvariant9(t *testing.T) {
	pair, err := testrig.New10G(13)
	if err != nil {
		t.Fatal(err)
	}
	_, ca, cb := pair.ApplyChaos(chaos.Plan{})
	pair.B.SetDebugFaults(core.DebugFaults{SkipMRValidation: true})
	if err := pair.ExchangeRKeys(testrig.QPA, testrig.QPB); err != nil {
		t.Fatal(err)
	}

	oob := uint64(pair.BufB.Base()) + uint64(pair.BufB.Size()) - 64
	pair.Eng.Go("attacker", func(p *sim.Process) {
		// The deadline bounds the run: past the buffer's last hugepage the
		// TLB has no mapping, so the illegal DMA itself errors out and the
		// requester may never see an ACK.
		pair.A.Do(p, testrig.QPA, core.Verb{Op: core.OpWrite, LocalVA: uint64(pair.BufA.Base()), RemoteVA: oob, Len: 1 << 12, Deadline: p.Now().Add(2 * sim.Millisecond)})
	})
	pair.Run()

	if v := ca.Finish(); len(v) > 0 {
		t.Errorf("requester-side violations: %v", v)
	}
	vb := cb.Finish()
	if len(vb) == 0 {
		t.Fatalf("SkipMRValidation armed but invariant 9 never tripped")
	}
	for _, v := range vb {
		if !strings.Contains(v, "DMA outside protection domain") {
			t.Errorf("unexpected violation beside invariant 9: %s", v)
		}
	}
}

// TestProtectSweepRogueOutcomes pins the protection sweep's acceptance
// numbers at one representative point: with ambient loss, crash cycles
// and a reconnecting legitimate client, every forged request the rogue
// lands is rejected, none completes, and the victim's NAK and
// validation-failure counters actually moved.
func TestProtectSweepRogueOutcomes(t *testing.T) {
	m, err := runProtectPoint(Quick(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.rogue.Unexpected != 0 {
		t.Errorf("rogue.Unexpected = %d, want 0", m.rogue.Unexpected)
	}
	if m.rogue.Total() != 8 {
		t.Errorf("rogue issued %d forged requests, want 8", m.rogue.Total())
	}
	if m.rogue.Rejected == 0 {
		t.Errorf("no forged request was NAK-rejected (rogue stats: %s)", m.rogue)
	}
	if m.naks == 0 || m.valFails == 0 {
		t.Errorf("protection counters did not move: naks=%d valFails=%d", m.naks, m.valFails)
	}
	if m.successes == 0 {
		t.Errorf("legitimate client made no progress under attack")
	}
	if m.violations != 0 {
		t.Errorf("violations = %d, want 0", m.violations)
	}
}
