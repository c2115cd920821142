package experiments

import (
	"fmt"

	"strom/internal/chaos"
	"strom/internal/mr"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

// The protection sweep is the adversarial companion to the recovery
// sweep: while a legitimate client works through deadline-bounded verbs
// under 4% bursty loss and two crash/restart cycles on machine B, a
// rogue requester on machine A hammers B with forged memory accesses —
// bad rkeys, stale keys, out-of-bounds lengths, writes to a read-only
// region, unregistered addresses. The sweep asserts the protection
// contract from three independent angles: every forged request that
// reaches B is NAK'd (rogue.Unexpected == 0), the invariant checkers
// stay silent — in particular invariant 9, which watches the DMA engine
// itself, downstream of validation — and the legitimate client keeps
// making progress by re-fetching rkeys after each restart (B's restart
// rotates every key, so the client's cached key goes stale).

// chaosProtectPoints is the sweep's x axis: forged requests issued by
// the rogue requester.
var chaosProtectPoints = []int{0, 4, 8, 16}

const (
	protectCrashCycles = 2
	protectOpDeadline  = 1200 * sim.Microsecond
	protectCrashFirst  = 400 * sim.Microsecond
	protectCadence     = 3 * sim.Millisecond
	protectDowntime    = 1200 * sim.Microsecond
)

// protectMeasure is one protection point's outcome.
type protectMeasure struct {
	deadlineClient
	rogue      chaos.RogueStats
	naks       uint64 // SynNAKRemoteAccess sent by B
	valFails   uint64 // MR-table validation failures on B, all classes
	violations int
}

// protectPlan is the ambient chaos: the 4% bursty-loss regime with light
// duplication and reordering, so protection NAKs share the wire with
// retransmissions and duplicates.
func protectPlan() chaos.Plan {
	faults := chaos.LinkFaults{
		Loss:        chaos.BurstyLoss(0.04),
		DupProb:     0.01,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.01,
		ReorderMax:  5 * sim.Microsecond,
	}
	return chaos.Plan{AtoB: faults, BtoA: faults}
}

// runProtectPoint drives the legitimate deadline-bounded workload and
// the rogue requester side by side, with crash/restart cycles on B.
func runProtectPoint(o Options, rogueOps int) (protectMeasure, error) {
	pair, err := newPair(o.unsharded(), profile10G(), 8<<20)
	if err != nil {
		return protectMeasure{}, err
	}
	// A read-only region on B for the rogue's permission attacks.
	roBuf, err := pair.B.AllocBufferFlags(1<<20, mr.AccessRemoteRead)
	if err != nil {
		return protectMeasure{}, err
	}
	inj, ca, cb := pair.ApplyChaos(protectPlan())
	_ = inj

	for i := 0; i < protectCrashCycles; i++ {
		at := sim.Time(protectCrashFirst + sim.Duration(i)*protectCadence)
		pair.Eng.ScheduleAt(at, func() { pair.B.Crash() })
		pair.Eng.ScheduleAt(at.Add(protectDowntime), func() { pair.B.Restart() })
	}

	// The legitimate client exchanges real rkeys up front — no wildcard
	// key 0 anywhere on the main QP pair.
	if err := pair.ExchangeRKeys(testrig.QPA, testrig.QPB); err != nil {
		return protectMeasure{}, err
	}

	m := protectMeasure{deadlineClient: deadlineClient{ops: o.Iterations, deadline: protectOpDeadline, rekey: true}}
	var rogue *chaos.Rogue
	if rogueOps > 0 {
		if rogue, err = startPairRogue(pair, roBuf, chaos.RogueConfig{Ops: rogueOps}); err != nil {
			return protectMeasure{}, err
		}
	}

	const xfer = 16 << 10
	localA, writeB, readB, err := chaosRegions(pair, xfer)
	if err != nil {
		return protectMeasure{}, err
	}

	var runErr error
	pair.Eng.Go("protect-client", func(p *sim.Process) {
		runErr = m.run(p, pair, localA, writeB, readB, xfer)
	})
	pair.Run()
	if runErr != nil {
		return protectMeasure{}, fmt.Errorf("protect workload: %w", runErr)
	}

	violations := append(ca.Finish(), cb.Finish()...)
	m.violations = len(violations)
	if err := violationError("protect", violations); err != nil {
		return m, err
	}
	if rogue != nil {
		m.rogue = rogue.Stats()
		if m.rogue.Unexpected > 0 {
			return m, fmt.Errorf("protect: %d forged requests completed successfully (protection failed): %s",
				m.rogue.Unexpected, m.rogue)
		}
	}
	m.naks = pair.B.Stack().Stats().NaksRemoteAccess
	for c := mr.Class(0); c < mr.NumClasses; c++ {
		m.valFails += pair.B.MRTable().FailCount(c)
	}
	if rogueOps > 0 && m.naks == 0 {
		return m, fmt.Errorf("protect: rogue issued %d forged requests but B sent no remote-access NAKs", m.rogue.Total())
	}
	return m, nil
}

// ChaosProtectSweep sweeps the rogue requester's forged-request budget
// under 4% bursty loss and two crash/restart cycles on the victim. The
// figure reports the legitimate client's progress beside the attack
// outcome counters; the sweep fails instead of plotting if any forged
// request completes, any invariant (including the DMA-level protection
// invariant 9) is violated, or the attack produced no NAKs at all.
func ChaosProtectSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Chaos: memory protection sweep (10G, GE loss 4%, 2 crash cycles, rogue requester)",
		"forged requests", "see series")
	s := []*stats.Series{
		fig.NewSeries("completion time (us)"),
		fig.NewSeries("successful ops"),
		fig.NewSeries("deadline errors"),
		fig.NewSeries("qp errors"),
		fig.NewSeries("reconnects"),
		fig.NewSeries("rogue rejected"),
		fig.NewSeries("rogue expired"),
		fig.NewSeries("rogue unexpected"),
		fig.NewSeries("remote-access NAKs"),
		fig.NewSeries("validation failures"),
		fig.NewSeries("invariant violations"),
	}
	for _, ops := range chaosProtectPoints {
		m, err := runProtectPoint(o, ops)
		if err != nil {
			return nil, fmt.Errorf("rogue ops %d: %w", ops, err)
		}
		label := fmt.Sprintf("%d", ops)
		x := float64(ops)
		s[0].Add(x, label, m.elapsed.Microseconds())
		s[1].Add(x, label, float64(m.successes))
		s[2].Add(x, label, float64(m.deadlineErrs))
		s[3].Add(x, label, float64(m.qpErrs))
		s[4].Add(x, label, float64(m.reconnects))
		s[5].Add(x, label, float64(m.rogue.Rejected))
		s[6].Add(x, label, float64(m.rogue.Expired))
		s[7].Add(x, label, float64(m.rogue.Unexpected))
		s[8].Add(x, label, float64(m.naks))
		s[9].Add(x, label, float64(m.valFails))
		s[10].Add(x, label, float64(m.violations))
	}
	return fig, nil
}
