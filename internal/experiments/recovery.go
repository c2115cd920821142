package experiments

import (
	"errors"
	"fmt"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

// The recovery sweep exercises the end-to-end failure path: machine B
// crashes and restarts on a schedule while A keeps issuing deadline-
// bounded verbs under Gilbert–Elliott loss. A detects each death through
// verb deadlines (1.2 ms, far below the ~8.5 ms retry-exhaustion
// horizon), classifies the typed error, and re-establishes the
// connection with an exponential-backoff reconnect loop. The invariant
// checkers on both stacks assert the recovery contract throughout:
// exactly-once completion for every posted verb, no fresh PSNs out of an
// ERROR-state QP, and clean PSN restart after every reconnect.

// chaosRecoveryPoints is the sweep's x axis: crash/restart cycles
// injected on machine B.
var chaosRecoveryPoints = []int{0, 1, 2, 4}

const (
	recoveryOpDeadline = 1200 * sim.Microsecond
	recoveryCrashFirst = 200 * sim.Microsecond
	recoveryCadence    = 3 * sim.Millisecond
	recoveryDowntime   = 1200 * sim.Microsecond
)

// recoveryMeasure is one recovery point's outcome.
type recoveryMeasure struct {
	deadlineClient
	faults     uint64
	violations int
}

// deadlineClient is the recovery and protection sweeps' legitimate
// client, configuration and outcome: ops rounds of a WRITE then a READ
// of xfer bytes, each bounded by deadline. A failed verb is classified
// by its typed error, then the client backs off and re-establishes
// QPA/QPB, spinning on ErrPeerCrashed until B is back up.
type deadlineClient struct {
	ops      int
	deadline sim.Duration
	// transient: a failure that left both QPs in RTS on live machines (a
	// loss-induced deadline miss) needs no reconnect.
	transient bool
	// rekey: re-fetch the peer's rkeys after a reconnect — B's restart
	// rotated them and the reconnect alone does not refresh the cached
	// default. Without it the pair runs on the wildcard key 0.
	rekey bool

	elapsed      sim.Duration
	successes    uint64
	deadlineErrs uint64
	qpErrs       uint64 // includes ErrRemoteAccess from a stale rkey after a restart
	reconnects   uint64
}

func (c *deadlineClient) run(p *sim.Process, pair *testrig.Pair, localA, writeB, readB uint64, xfer int) error {
	bo := sim.Backoff{Base: 200 * sim.Microsecond, Max: 2 * sim.Millisecond, Factor: 2, Jitter: 0.5}
	for i := 0; i < c.ops; i++ {
		err := pair.A.Do(p, testrig.QPA, core.Verb{Op: core.OpWrite, LocalVA: localA, RemoteVA: writeB, Len: xfer, Deadline: p.Now().Add(c.deadline)})
		if err == nil {
			err = pair.A.Do(p, testrig.QPA, core.Verb{Op: core.OpRead, LocalVA: localA, RemoteVA: readB, Len: xfer, Deadline: p.Now().Add(c.deadline)})
		}
		if err == nil {
			c.successes++
			continue
		}
		switch {
		case errors.Is(err, sim.ErrDeadlineExceeded):
			c.deadlineErrs++
		case errors.Is(err, roce.ErrQPError):
			c.qpErrs++
		default:
			return fmt.Errorf("op %d: unexpected error class: %w", i, err)
		}
		for attempt := 0; ; attempt++ {
			if attempt >= 64 {
				return fmt.Errorf("op %d: recovery gave up after %d attempts: %w", i, attempt, err)
			}
			p.Sleep(bo.Delay(attempt, p.Engine().Rand()))
			if c.transient {
				stA, serr := pair.A.Stack().QPStateOf(testrig.QPA)
				if serr != nil {
					return serr
				}
				stB, _ := pair.B.Stack().QPStateOf(testrig.QPB)
				if stA == roce.QPStateRTS && stB == roce.QPStateRTS && !pair.A.Crashed() && !pair.B.Crashed() {
					break
				}
			}
			if rerr := pair.Reconnect(); rerr == nil {
				c.reconnects++
				break
			} else if !errors.Is(rerr, roce.ErrPeerCrashed) {
				return fmt.Errorf("op %d: reconnect: %w", i, rerr)
			}
		}
		if c.rekey {
			if kerr := pair.ExchangeRKeys(testrig.QPA, testrig.QPB); kerr != nil {
				return fmt.Errorf("op %d: rkey exchange: %w", i, kerr)
			}
		}
	}
	c.elapsed = pair.Eng.Now().Sub(0)
	return nil
}

// recoveryPlan is the ambient network chaos the recovery story plays out
// under: the 4% bursty-loss regime with light duplication and
// reordering, plus one link flap to keep the flap path honest.
func recoveryPlan() chaos.Plan {
	faults := chaos.LinkFaults{
		Loss:        chaos.BurstyLoss(0.04),
		DupProb:     0.01,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.01,
		ReorderMax:  5 * sim.Microsecond,
	}
	return chaos.Plan{
		AtoB:  faults,
		BtoA:  faults,
		Flaps: []chaos.Window{{At: sim.Time(2500 * sim.Microsecond), Dur: 100 * sim.Microsecond}},
	}
}

// runRecoveryPoint drives the deadline-bounded workload with the given
// number of crash/restart cycles on B.
func runRecoveryPoint(o Options, cycles int) (recoveryMeasure, error) {
	pair, err := newPair(o.unsharded(), profile10G(), 8<<20)
	if err != nil {
		return recoveryMeasure{}, err
	}
	inj, ca, cb := pair.ApplyChaos(recoveryPlan())

	for i := 0; i < cycles; i++ {
		at := sim.Time(recoveryCrashFirst + sim.Duration(i)*recoveryCadence)
		pair.Eng.ScheduleAt(at, func() { pair.B.Crash() })
		pair.Eng.ScheduleAt(at.Add(recoveryDowntime), func() { pair.B.Restart() })
	}

	const xfer = 16 << 10
	localA, writeB, readB, err := chaosRegions(pair, xfer)
	if err != nil {
		return recoveryMeasure{}, err
	}

	m := recoveryMeasure{deadlineClient: deadlineClient{ops: o.Iterations * 2, deadline: recoveryOpDeadline, transient: true}}
	var runErr error
	pair.Eng.Go("recovery-client", func(p *sim.Process) {
		runErr = m.run(p, pair, localA, writeB, readB, xfer)
	})
	pair.Run()
	if runErr != nil {
		return recoveryMeasure{}, fmt.Errorf("recovery workload: %w", runErr)
	}

	violations := append(ca.Finish(), cb.Finish()...)
	m.violations = len(violations)
	if err := violationError("recovery", violations); err != nil {
		return m, err
	}
	m.faults = inj.Stats().Total()
	return m, nil
}

// ChaosRecoverySweep sweeps crash/restart cycles on machine B under 4%
// bursty loss and reports the client's recovery behaviour: successes,
// error classes, reconnects. Every posted verb must complete exactly
// once and the checkers must stay silent at every point, or the sweep
// fails instead of plotting.
func ChaosRecoverySweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Chaos: crash/restart recovery sweep (10G, GE loss 4%)", "crash cycles", "see series")
	s := []*stats.Series{
		fig.NewSeries("completion time (us)"),
		fig.NewSeries("successful ops"),
		fig.NewSeries("deadline errors"),
		fig.NewSeries("qp errors"),
		fig.NewSeries("reconnects"),
		fig.NewSeries("faults injected"),
		fig.NewSeries("invariant violations"),
	}
	for _, cycles := range chaosRecoveryPoints {
		m, err := runRecoveryPoint(o, cycles)
		if err != nil {
			return nil, fmt.Errorf("cycles %d: %w", cycles, err)
		}
		label := fmt.Sprintf("%d", cycles)
		x := float64(cycles)
		s[0].Add(x, label, m.elapsed.Microseconds())
		s[1].Add(x, label, float64(m.successes))
		s[2].Add(x, label, float64(m.deadlineErrs))
		s[3].Add(x, label, float64(m.qpErrs))
		s[4].Add(x, label, float64(m.reconnects))
		s[5].Add(x, label, float64(m.faults))
		s[6].Add(x, label, float64(m.violations))
	}
	return fig, nil
}
