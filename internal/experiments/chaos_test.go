package experiments

import (
	"errors"
	"strings"
	"testing"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/fabric"
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

// TestRecoveryPointDeterministic: the recovery workload — crash times,
// deadline expiries, backoff jitter and all — is a pure function of
// (Options, seed): two runs must agree field for field.
func TestRecoveryPointDeterministic(t *testing.T) {
	o := Quick().normalized()
	first, err := chaosRecovery(o, 2).run(o, Exports{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := chaosRecovery(o, 2).run(o, Exports{})
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("recovery point diverged across identical runs:\n%+v\nvs\n%+v", first, second)
	}
	if first.successes == 0 {
		t.Error("no successful ops — the client never recovered")
	}
	if first.reconnects == 0 {
		t.Error("no reconnects — the crashes never reached the client")
	}
	if first.deadlineErrs+first.qpErrs == 0 {
		t.Error("no failures detected despite two crash cycles")
	}
	if first.violations != 0 {
		t.Errorf("violations = %d", first.violations)
	}
	if first.faults == 0 {
		t.Error("ambient chaos injected no faults")
	}
}

// TestRecoveryBaselineNeedsNoReconnect: with zero crash cycles the QPs
// never leave RTS, so loss-induced deadline misses must resolve as
// transient — without tearing the connection down.
func TestRecoveryBaselineNeedsNoReconnect(t *testing.T) {
	o := Quick().normalized()
	m, err := chaosRecovery(o, 0).run(o, Exports{})
	if err != nil {
		t.Fatal(err)
	}
	if m.reconnects != 0 {
		t.Errorf("reconnects = %d at zero crash cycles", m.reconnects)
	}
	if m.qpErrs != 0 {
		t.Errorf("qpErrs = %d at zero crash cycles", m.qpErrs)
	}
	if m.successes == 0 {
		t.Error("no successful ops")
	}
}

// A crash cycle the client never sees fails the point: with one round
// and two cycles, both cycles arm after round 0, which never completes,
// so neither fires and the client makes no reconnect.
func TestCrashCyclesMustReachClient(t *testing.T) {
	o := Quick().normalized()
	c := chaosRecovery(o, 2)
	c.client.ops = 1
	_, err := c.run(o, Exports{})
	if err == nil || !strings.Contains(err.Error(), "0 reconnects across 2 crash cycles") {
		t.Fatalf("err = %v, want the point failed for missing reconnects", err)
	}
}

// TestChaosRecoverySweepShape: the sweep renders all seven series over
// the full x axis (it already failed internally if any point saw an
// invariant violation or an unclassified error).
func TestChaosRecoverySweepShape(t *testing.T) {
	fig, err := ChaosRecoverySweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fig.Series); got != 7 {
		t.Fatalf("series = %d, want 7", got)
	}
	for _, s := range fig.Series {
		if got := len(s.Points); got != 4 {
			t.Errorf("series %q has %d points, want 4", s.Name, got)
		}
	}
}

// TestProtectSweepRogueOutcomes pins the protection sweep's acceptance
// numbers at one representative point: with ambient loss, crash cycles
// and a reconnecting legitimate client, every forged request the rogue
// lands is rejected, none completes, and the victim's NAK and
// validation-failure counters actually moved.
func TestProtectSweepRogueOutcomes(t *testing.T) {
	m, err := chaosProtect(Quick(), 8).run(Quick(), Exports{})
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

// chaosDigestRun drives a lossy write stream over the sharded testbed
// under a chaos plan and returns the injector's schedule digest, fault
// totals, and the fault record log merged from both machines' sites.
func chaosDigestRun(t *testing.T) (uint64, uint64, string) {
	t.Helper()
	pair, err := testrig.New(7, core.Profile10G(), fabric.DirectCable10G(), 8<<20)
	if err != nil {
		t.Fatalf("testrig.New: %v", err)
	}
	faults := chaos.LinkFaults{
		Loss:        chaos.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.3, LossGood: 0.002, LossBad: 0.2},
		DupProb:     0.01,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.01,
		ReorderMax:  3 * sim.Microsecond,
	}
	plan := chaos.Plan{
		AtoB:    faults,
		BtoA:    faults,
		Flaps:   []chaos.Window{{At: sim.Time(80 * sim.Microsecond), Dur: 15 * sim.Microsecond}},
		StallsA: []chaos.Window{{At: sim.Time(40 * sim.Microsecond), Dur: 10 * sim.Microsecond}},
		StallsB: []chaos.Window{{At: sim.Time(120 * sim.Microsecond), Dur: 10 * sim.Microsecond}},
	}
	inj, ca, cb := pair.ApplyChaos(plan)
	const size, msgs = 4 << 10, 200
	remaining := msgs
	var opErr error
	pair.Eng.Schedule(0, func() {
		for i := 0; i < msgs; i++ {
			pair.A.PostWrite(testrig.QPA, uint64(pair.BufA.Base()), uint64(pair.BufB.Base()), size, func(err error) {
				if err != nil && opErr == nil {
					opErr = err
				}
				remaining--
			})
		}
	})
	pair.Run()
	if opErr != nil {
		t.Fatal(opErr)
	}
	if remaining != 0 {
		t.Fatalf("stream stalled with %d remaining", remaining)
	}
	for _, c := range []*chaos.Checker{ca, cb} {
		if vs := c.Finish(); len(vs) != 0 {
			t.Fatalf("protocol violations under chaos: %v", vs)
		}
	}
	var recs string
	for _, r := range inj.Records() {
		recs += r.String() + "\n"
	}
	return inj.ScheduleDigest(), inj.Stats().Total(), recs
}

// The injected chaos schedule is part of the determinism contract: the
// digest over every fault (time, site, kind, delay), the fault totals
// and the merged record log must match between two runs of the sharded
// testbed at one seed.
func TestShardedChaosDigestAcrossWorkers(t *testing.T) {
	d1, n1, r1 := chaosDigestRun(t)
	d2, n2, r2 := chaosDigestRun(t)
	if n1 == 0 {
		t.Fatalf("chaos plan injected no faults — the digest comparison is vacuous")
	}
	if d1 != d2 {
		t.Errorf("schedule digest differs: run 1 %#x, run 2 %#x", d1, d2)
	}
	if n1 != n2 {
		t.Errorf("fault totals differ: run 1 %d, run 2 %d", n1, n2)
	}
	if r1 != r2 {
		t.Errorf("merged fault records differ between two runs")
	}
}
