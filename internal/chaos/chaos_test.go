// The tests live in an external package so they can drive the full
// testbed (internal/testrig imports internal/chaos for ApplyChaos).
package chaos_test

import (
	"errors"
	"strings"
	"testing"

	"strom/internal/chaos"
	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/testrig"
)

func TestGilbertElliottAverageLoss(t *testing.T) {
	for _, avg := range []float64{0.005, 0.01, 0.04, 0.10} {
		g := chaos.BurstyLoss(avg)
		got := g.AverageLoss()
		if got < avg*0.999 || got > avg*1.001 {
			t.Errorf("BurstyLoss(%v).AverageLoss() = %v", avg, got)
		}
	}
	if g := chaos.BurstyLoss(0); g.AverageLoss() != 0 {
		t.Errorf("BurstyLoss(0) should be inert")
	}
}

// fullPlan exercises every fault class the injector knows.
func fullPlan() chaos.Plan {
	return chaos.Plan{
		AtoB: chaos.LinkFaults{
			Loss:        chaos.BurstyLoss(0.04),
			CorruptProb: 0.005,
			DupProb:     0.02,
			DupDelay:    2 * sim.Microsecond,
			ReorderProb: 0.02,
			ReorderMax:  5 * sim.Microsecond,
		},
		BtoA: chaos.LinkFaults{
			Loss:        chaos.BurstyLoss(0.02),
			DupProb:     0.01,
			DupDelay:    3 * sim.Microsecond,
			ReorderProb: 0.01,
			ReorderMax:  4 * sim.Microsecond,
		},
		Flaps: []chaos.Window{
			{At: sim.Time(100 * sim.Microsecond), Dur: 50 * sim.Microsecond},
			{At: sim.Time(700 * sim.Microsecond), Dur: 20 * sim.Microsecond},
		},
		StallsA: periodicWindows(50*sim.Microsecond, 500*sim.Microsecond, 150*sim.Microsecond, 12),
		StallsB: periodicWindows(250*sim.Microsecond, 500*sim.Microsecond, 150*sim.Microsecond, 12),
	}
}

// periodicWindows builds n windows of length dur, every period from
// start.
func periodicWindows(start sim.Duration, period, dur sim.Duration, n int) []chaos.Window {
	ws := make([]chaos.Window, n)
	for i := range ws {
		ws[i] = chaos.Window{At: sim.Time(start + sim.Duration(i)*period), Dur: dur}
	}
	return ws
}

// runChaosWorkload drives writes and reads over the pair: writes target
// the first half of B's buffer, reads a static region in the second half
// (disjoint, so duplicate READ servings must be bit-identical even when a
// delayed duplicate request arrives after later writes).
func runChaosWorkload(t *testing.T, pair *testrig.Pair, transfers int) []error {
	t.Helper()
	const xfer = 32 << 10
	localA := uint64(pair.BufA.Base())
	writeB := uint64(pair.BufB.Base())
	readB := pair.BufB.Base() + hostmem.Addr(pair.BufB.Size()/2)
	static := make([]byte, xfer)
	for i := range static {
		static[i] = byte(i * 7)
	}
	if err := pair.B.Memory().WriteVirt(readB, static); err != nil {
		t.Fatalf("seeding read region: %v", err)
	}
	var errs []error
	pair.Eng.Go("chaos-client", func(p *sim.Process) {
		for i := 0; i < transfers; i++ {
			if err := pair.A.WriteSync(p, testrig.QPA, localA, writeB, xfer); err != nil {
				errs = append(errs, err)
				return
			}
			if err := pair.A.ReadSync(p, testrig.QPA, uint64(readB), localA, xfer); err != nil {
				errs = append(errs, err)
				return
			}
		}
	})
	pair.Eng.Run()
	return errs
}

// TestChaosRunCleanInvariants is the tentpole acceptance check: the full
// fault mix — bursty loss, corruption, duplication, reordering, link
// flaps, DMA stalls — runs to completion with zero invariant violations.
func TestChaosRunCleanInvariants(t *testing.T) {
	pair, err := testrig.New10G(7)
	if err != nil {
		t.Fatal(err)
	}
	inj, ca, cb := pair.ApplyChaos(fullPlan())
	if errs := runChaosWorkload(t, pair, 16); len(errs) > 0 {
		t.Fatalf("workload failed under chaos: %v", errs)
	}
	if v := ca.Finish(); len(v) > 0 {
		t.Errorf("checker A violations:\n%s", strings.Join(v, "\n"))
	}
	if v := cb.Finish(); len(v) > 0 {
		t.Errorf("checker B violations:\n%s", strings.Join(v, "\n"))
	}
	st := inj.Stats()
	if st.Dropped == 0 || st.FlapDropped == 0 || st.Duplicated == 0 || st.Reordered == 0 || st.Stalled == 0 {
		t.Errorf("expected every fault class to fire, got %+v", st)
	}
	if ca.Posted() == 0 || ca.Posted() != ca.Completed() {
		t.Errorf("verb lifecycle: posted %d completed %d", ca.Posted(), ca.Completed())
	}
	// Reliability machinery must actually have been exercised.
	if s := pair.A.Stack().Stats(); s.Retransmissions == 0 {
		t.Errorf("no retransmissions under %d injected faults", st.Total())
	}
}

// TestScheduleReplayDeterminism: the same plan at the same seed injects
// the byte-identical fault schedule; a different seed does not.
func TestScheduleReplayDeterminism(t *testing.T) {
	run := func(seed int64) (uint64, chaos.Stats, int) {
		pair, err := testrig.New10G(seed)
		if err != nil {
			t.Fatal(err)
		}
		inj, _, _ := pair.ApplyChaos(fullPlan())
		if errs := runChaosWorkload(t, pair, 8); len(errs) > 0 {
			t.Fatalf("workload failed: %v", errs)
		}
		return inj.ScheduleDigest(), inj.Stats(), len(inj.Records())
	}
	d1, s1, n1 := run(3)
	d2, s2, n2 := run(3)
	if d1 != d2 || s1 != s2 || n1 != n2 {
		t.Errorf("replay diverged: digest %#x/%#x stats %+v/%+v records %d/%d", d1, d2, s1, s2, n1, n2)
	}
	if d1 == 0 || n1 == 0 {
		t.Errorf("no faults recorded (digest %#x, %d records)", d1, n1)
	}
	d3, _, _ := run(4)
	if d3 == d1 {
		t.Errorf("different seed reproduced the same schedule digest %#x", d1)
	}
}

// TestCheckerFlagsSkippedPSN: a requester that silently consumes an extra
// PSN (the SkipPSNAt debug fault) must be caught as a PSN gap.
func TestCheckerFlagsSkippedPSN(t *testing.T) {
	pair, err := testrig.New10G(1)
	if err != nil {
		t.Fatal(err)
	}
	ca := chaos.AttachChecker(pair.A.Stack(), "A", pair.Eng)
	pair.A.Stack().SetDebugFaults(roce.DebugFaults{SkipPSNAt: 2})
	const xfer = 4 << 10
	localA := uint64(pair.BufA.Base())
	remoteB := uint64(pair.BufB.Base())
	var lastErr error
	pair.Eng.Go("client", func(p *sim.Process) {
		lastErr = pair.A.WriteSync(p, testrig.QPA, localA, remoteB, xfer)
		if lastErr == nil {
			lastErr = pair.A.WriteSync(p, testrig.QPA, localA, remoteB, xfer)
		}
	})
	pair.Eng.Run()
	if !violationContains(ca.Violations(), "PSN gap") {
		t.Errorf("skipped PSN not flagged; violations: %v, err: %v", ca.Violations(), lastErr)
	}
}

// TestCheckerFlagsCorruptDupRead: a responder serving a duplicate READ
// with a different payload (the CorruptDupRead debug fault) must be
// caught by the bit-identity invariant.
func TestCheckerFlagsCorruptDupRead(t *testing.T) {
	pair, err := testrig.New10G(1)
	if err != nil {
		t.Fatal(err)
	}
	cb := chaos.AttachChecker(pair.B.Stack(), "B", pair.Eng)
	pair.B.Stack().SetDebugFaults(roce.DebugFaults{CorruptDupRead: true})
	// Drop the first B→A frame: the READ response. A times out and
	// re-requests; B answers from the duplicate-READ cache — corrupted.
	pair.Link.SetFaultsBtoA(fabric.DropFrame(0))
	const xfer = 1 << 10
	localA := uint64(pair.BufA.Base())
	remoteB := uint64(pair.BufB.Base())
	pair.Eng.Go("client", func(p *sim.Process) {
		pair.A.ReadSync(p, testrig.QPA, remoteB, localA, xfer)
	})
	pair.Eng.Run()
	if hits := pair.B.Stack().Stats().DupReadCacheHits; hits == 0 {
		t.Fatalf("scenario broken: no duplicate-READ cache hit")
	}
	if !violationContains(cb.Violations(), "different payload") {
		t.Errorf("corrupt duplicate READ not flagged; violations: %v", cb.Violations())
	}
}

// TestCheckerFlagsSuppressedRetransmit: a transport that times out but
// never actually retransmits (the SuppressRetransmit debug fault) must be
// caught by the timeout-liveness invariant.
func TestCheckerFlagsSuppressedRetransmit(t *testing.T) {
	pair, err := testrig.New10G(1)
	if err != nil {
		t.Fatal(err)
	}
	ca := chaos.AttachChecker(pair.A.Stack(), "A", pair.Eng)
	pair.A.Stack().SetDebugFaults(roce.DebugFaults{SuppressRetransmit: true})
	pair.Link.SetFaultsAtoB(fabric.DropFrame(2))
	const xfer = 16 << 10
	localA := uint64(pair.BufA.Base())
	remoteB := uint64(pair.BufB.Base())
	var werr error
	pair.Eng.Go("client", func(p *sim.Process) {
		werr = pair.A.WriteSync(p, testrig.QPA, localA, remoteB, xfer)
	})
	pair.Eng.Run()
	if !errors.Is(werr, roce.ErrRetryExceeded) {
		t.Errorf("write should exhaust retries, got %v", werr)
	}
	if !violationContains(ca.Finish(), "no retransmission") {
		t.Errorf("suppressed retransmission not flagged; violations: %v", ca.Violations())
	}
}

// TestFlapRecovery: a link-down window drops everything in both
// directions, and the transport recovers once the link is back.
func TestFlapRecovery(t *testing.T) {
	pair, err := testrig.New10G(1)
	if err != nil {
		t.Fatal(err)
	}
	plan := chaos.Plan{Flaps: []chaos.Window{{At: 0, Dur: 100 * sim.Microsecond}}}
	inj, ca, cb := pair.ApplyChaos(plan)
	const xfer = 8 << 10
	localA := uint64(pair.BufA.Base())
	remoteB := uint64(pair.BufB.Base())
	var werr error
	pair.Eng.Go("client", func(p *sim.Process) {
		werr = pair.A.WriteSync(p, testrig.QPA, localA, remoteB, xfer)
	})
	pair.Eng.Run()
	if werr != nil {
		t.Errorf("write should recover after the flap: %v", werr)
	}
	if inj.Stats().FlapDropped == 0 {
		t.Errorf("flap window dropped nothing")
	}
	if v := append(ca.Finish(), cb.Finish()...); len(v) > 0 {
		t.Errorf("violations: %v", v)
	}
}

func violationContains(vs []string, substr string) bool {
	for _, v := range vs {
		if strings.Contains(v, substr) {
			return true
		}
	}
	return false
}
