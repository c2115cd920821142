package experiments

import (
	"errors"
	"fmt"
	"strconv"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/hostmem"
	"strom/internal/kernels/traversal"
	"strom/internal/mr"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

// The chaos suite stresses the §4.3 reliability machinery — go-back-N,
// RETH-snapshot replay, the duplicate-READ cache — under adverse networks
// the paper's clean testbed never shows: bursty loss, reordering,
// duplication, link flaps, PCIe stalls, crash/restart cycles and a rogue
// requester forging memory accesses. Every two-machine point is one
// pairChaos: the invariant checker rides on both stacks, and a point
// fails (rather than plotting garbage) if any transport invariant is
// violated or any forged request completes.

// Chaos lists the chaos suite generators (the chaos scenario's sweep).
func Chaos() []Generator {
	return []Generator{
		{"chaos-loss", ChaosLossSweep},
		{"chaos-flap", ChaosFlapSweep},
		{"chaos-recovery", ChaosRecoverySweep},
		{"chaos-protect", ChaosProtectSweep},
		{"chaos-incast", ChaosIncastSweep},
		{"chaos-kv", ChaosKVSweep},
		{"chaos-kv-large", ChaosKVLargeSweep},
	}
}

// pairChaos is one two-machine chaos point: the client's rounds of a
// WRITE into the first half of B's buffer and a READ of static bytes in
// its second half, under the plan, with whatever else the point asks for.
type pairChaos struct {
	plan   chaos.Plan
	client deadlineClient
	// crashes is the number of crash/restart cycles on B. Cycle j arms on
	// the client's progress, once round ⌊(j+1)·ops/(crashes+1)⌋ is done,
	// and crashes B crashLag into the next round, with that round's verbs
	// in flight; each keeps B down for crashDowntime. The client must
	// reconnect at least once per cycle.
	crashes int
	// protect puts a read-only region on B (the rogue's permission-attack
	// target) and has the client exchange real rkeys up front, and again
	// after every reconnect: no wildcard key 0 anywhere on the main QP
	// pair.
	protect bool
	// rogue, when it has Ops, forges that many accesses into B from a
	// second QP pair on A (roce_nak_remote_access, mr_validation_fail).
	rogue chaos.RogueConfig
	// sandbox sends one traversal RPC after the client, chasing a pointer
	// into unregistered memory so the kernel sandbox fires
	// (kernel_mr_fault).
	sandbox bool
}

// A crash lands crashLag into a round: a clean 16 KiB round takes 40 µs
// on the 10 G pair, the WRITE the first 19.5, so B is then streaming the
// READ's responses.
const (
	crashLag      = 30 * sim.Microsecond
	crashDowntime = 1200 * sim.Microsecond
)

// The rogue requester's channel: a second QP pair beside QPA/QPB.
const (
	rogueQPA uint32 = 3
	rogueQPB uint32 = 4
)

// deadlineClient is a point's legitimate client, configuration and
// outcome: ops rounds of a WRITE then a READ of xfer bytes, each bounded
// by deadline. With no deadline any failed verb fails the point. With
// one, a failed verb is classified by its typed error, then the client
// backs off and re-establishes QPA/QPB, spinning on ErrPeerCrashed until
// B is back up.
type deadlineClient struct {
	ops      int
	xfer     int
	deadline sim.Duration
	// transient: a failure that left both QPs in RTS on live machines (a
	// loss-induced deadline miss) needs no reconnect.
	transient bool

	elapsed      sim.Duration
	successes    uint64
	deadlineErrs uint64
	qpErrs       uint64 // includes ErrRemoteAccess from a stale rkey after a restart
	reconnects   uint64
}

// run drives the rounds, calling progress with the number of rounds done
// after each one. rekey re-fetches the peer's rkeys after a reconnect: B's
// restart rotated them and the reconnect alone does not refresh the
// cached default, so a pair that started on real keys would fail on stale
// ones.
func (c *deadlineClient) run(p *sim.Process, pair *testrig.Pair, localA, writeB, readB uint64, rekey bool, progress func(done int)) error {
	do := func(op core.Op, remote uint64) error {
		v := core.Verb{Op: op, LocalVA: localA, RemoteVA: remote, Len: c.xfer}
		if c.deadline > 0 {
			v.Deadline = p.Now().Add(c.deadline)
		}
		return pair.A.Do(p, testrig.QPA, v)
	}
	for i := 0; i < c.ops; i++ {
		err := do(core.OpWrite, writeB)
		if err == nil {
			err = do(core.OpRead, readB)
		}
		if err == nil {
			c.successes++
		} else if err = c.recoverFrom(p, pair, rekey, err); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		progress(i + 1)
	}
	c.elapsed = pair.Eng.Now().Sub(0)
	return nil
}

// recoverFrom classifies a failed round's error and re-establishes the
// connection, or returns the error that fails the point.
func (c *deadlineClient) recoverFrom(p *sim.Process, pair *testrig.Pair, rekey bool, err error) error {
	switch {
	case c.deadline == 0:
		return err
	case errors.Is(err, sim.ErrDeadlineExceeded):
		c.deadlineErrs++
	case errors.Is(err, roce.ErrQPError):
		c.qpErrs++
	default:
		return fmt.Errorf("unexpected error class: %w", err)
	}
	bo := sim.Backoff{Base: 200 * sim.Microsecond, Max: 2 * sim.Millisecond, Factor: 2, Jitter: 0.5}
	for attempt := 0; ; attempt++ {
		if attempt >= 64 {
			return fmt.Errorf("recovery gave up after %d attempts: %w", attempt, err)
		}
		p.Sleep(bo.Delay(attempt, p.Engine().Rand()))
		var answer sim.Completion[testrig.Peer]
		pair.Reconnect(testrig.QPA, testrig.QPB, c.transient, answer.Complete, pair.BufB)
		peer, _ := answer.Wait(p)
		switch {
		case errors.Is(peer.Err, roce.ErrPeerCrashed):
			continue
		case peer.Err != nil:
			return fmt.Errorf("reconnect: %w", peer.Err)
		case peer.Reset:
			c.reconnects++
		}
		if rekey {
			if kerr := pair.A.SetRemoteRKey(testrig.QPA, peer.RKeys[0]); kerr != nil {
				return fmt.Errorf("rkey exchange: %w", kerr)
			}
		}
		return nil
	}
}

// chaosMeasure is one point's outcome: the client's, the stacks'
// reliability counters, the attack's and the checkers'.
type chaosMeasure struct {
	deadlineClient
	retrans    uint64
	timeouts   uint64
	faults     uint64
	rogue      chaos.RogueStats
	naks       uint64 // SynNAKRemoteAccess sent by B
	valFails   uint64 // MR-table validation failures on B, all classes
	violations int
}

// chaosColumns is every series a two-machine chaos sweep can plot.
var chaosColumns = map[string]func(chaosMeasure) float64{
	"completion time (us)": func(m chaosMeasure) float64 { return m.elapsed.Microseconds() },
	"retransmissions":      func(m chaosMeasure) float64 { return float64(m.retrans) },
	"timeouts":             func(m chaosMeasure) float64 { return float64(m.timeouts) },
	"faults injected":      func(m chaosMeasure) float64 { return float64(m.faults) },
	"successful ops":       func(m chaosMeasure) float64 { return float64(m.successes) },
	"deadline errors":      func(m chaosMeasure) float64 { return float64(m.deadlineErrs) },
	"qp errors":            func(m chaosMeasure) float64 { return float64(m.qpErrs) },
	"reconnects":           func(m chaosMeasure) float64 { return float64(m.reconnects) },
	"rogue rejected":       func(m chaosMeasure) float64 { return float64(m.rogue.Rejected) },
	"rogue expired":        func(m chaosMeasure) float64 { return float64(m.rogue.Expired) },
	"rogue unexpected":     func(m chaosMeasure) float64 { return float64(m.rogue.Unexpected) },
	"remote-access NAKs":   func(m chaosMeasure) float64 { return float64(m.naks) },
	"validation failures":  func(m chaosMeasure) float64 { return float64(m.valFails) },
	"invariant violations": func(m chaosMeasure) float64 { return float64(m.violations) },
}

// run drives the point and writes the exports ex asks for. Same-time
// events fire in scheduling order, so the set-up order below is part of
// every figure and export.
func (c pairChaos) run(o Options, ex Exports) (chaosMeasure, error) {
	m := chaosMeasure{deadlineClient: c.client}
	pair, err := newPair(o, profile10G(), 8<<20)
	if err != nil {
		return m, err
	}
	var roBuf *hostmem.Buffer
	if c.protect {
		if roBuf, err = pair.B.AllocBufferFlags(1<<20, mr.AccessRemoteRead); err != nil {
			return m, err
		}
	}
	if c.sandbox {
		if err := pair.B.DeployKernel(traversalOp, traversal.New(0)); err != nil {
			return m, err
		}
	}
	taps := tapPair(pair, ex)
	inj, ca, cb := pair.ApplyChaos(c.plan)
	if taps.tel != nil {
		// The injector's counters sum both machines' sites, so they go on
		// the whole registry: the end-of-run export, not the mid-run scrapes.
		inj.AttachTelemetry(taps.tel.Registry)
	}
	if c.protect {
		if err := pair.ExchangeRKeys(testrig.QPA, testrig.QPB); err != nil {
			return m, err
		}
	}
	var rogue *chaos.Rogue
	if c.rogue.Ops > 0 {
		if rogue, err = startPairRogue(pair, roBuf, c.rogue); err != nil {
			return m, err
		}
	}

	// A's buffer, the WRITE target at the start of B's buffer, and a READ
	// source of static random bytes in its second half.
	localA, writeB := uint64(pair.BufA.Base()), uint64(pair.BufB.Base())
	readB := pair.BufB.Base() + hostmem.Addr(pair.BufB.Size()/2)
	static := make([]byte, c.client.xfer)
	pair.Eng.Rand().Read(static)
	if err := pair.B.Memory().WriteVirt(readB, static); err != nil {
		return m, err
	}

	cycles := 0
	progress := func(done int) {
		if cycles < c.crashes && done == (cycles+1)*c.client.ops/(c.crashes+1) {
			cycles++
			pair.Eng.CrossSchedule(pair.EngB, crashLag, func() {
				pair.B.Crash()
				pair.EngB.Schedule(crashDowntime, pair.B.Restart)
			})
		}
	}
	var runErr error
	pair.Eng.Go("chaos-client", func(p *sim.Process) {
		if runErr = m.run(p, pair, localA, writeB, uint64(readB), c.protect, progress); runErr != nil || !c.sandbox {
			return
		}
		// The kernel's first element fetch faults, and the RPC completes
		// with StatusFault.
		params := traversal.Params{
			RemoteAddress:   1 << 40,
			ResponseAddress: uint64(pair.BufA.Base()) + 1<<20,
			ValueSize:       64,
		}
		if _, lerr := traversal.Lookup(p, pair.A, testrig.QPA, traversalOp, params); !errors.Is(lerr, traversal.ErrFault) {
			runErr = fmt.Errorf("sandboxed lookup: got %v, want %v", lerr, traversal.ErrFault)
		}
	})
	taps.run()
	if runErr != nil {
		return m, fmt.Errorf("chaos workload: %w", runErr)
	}

	vio := append(ca.Finish(), cb.Finish()...)
	if m.reconnects < uint64(c.crashes) {
		vio = append(vio, fmt.Sprintf("client: %d reconnects across %d crash cycles", m.reconnects, c.crashes))
	}
	if rogue != nil {
		if m.rogue = rogue.Stats(); m.rogue.Unexpected > 0 {
			vio = append(vio, fmt.Sprintf("rogue: %d forged requests completed (protection failed): %s", m.rogue.Unexpected, m.rogue))
		}
	}
	m.violations = len(vio)
	if err := violationError("chaos", vio); err != nil {
		return m, err
	}
	sa, sb := pair.A.Stack().Stats(), pair.B.Stack().Stats()
	m.retrans = sa.Retransmissions + sb.Retransmissions
	m.timeouts = sa.Timeouts + sb.Timeouts
	m.faults = inj.Stats().Total()
	m.naks = sb.NaksRemoteAccess
	for cl := mr.Class(0); cl < mr.NumClasses; cl++ {
		m.valFails += pair.B.MRTable().FailCount(cl)
	}
	if rogue != nil && m.naks == 0 {
		return m, fmt.Errorf("chaos: rogue issued %d forged requests but B sent no remote-access NAKs", m.rogue.Total())
	}
	return m, taps.export()
}

// startPairRogue starts a rogue requester on machine A forging accesses
// into B's buffer and into roBuf, a read-only region on B (its key is
// perfectly valid, only the access class is wrong for a WRITE). cfg
// carries the attack budget and pacing. The rogue knows B's rkeys as B
// last reported them: at setup, and again with every reconnect.
func startPairRogue(pair *testrig.Pair, roBuf *hostmem.Buffer, cfg chaos.RogueConfig) (*chaos.Rogue, error) {
	if err := pair.AddQueuePair(rogueQPA, rogueQPB); err != nil {
		return nil, err
	}
	keys := []uint32{
		pair.B.RegionFor(uint64(pair.BufB.Base())).RKey(),
		pair.B.RegionFor(uint64(roBuf.Base())).RKey(),
	}
	cfg.QPN = rogueQPA
	cfg.LocalVA = uint64(pair.BufA.Base()) + uint64(pair.BufA.Size()/2)
	cfg.Target = chaos.RogueTarget{
		Base:   uint64(pair.BufB.Base()),
		Size:   uint64(pair.BufB.Size()),
		Key:    func() uint32 { return keys[0] },
		ROBase: uint64(roBuf.Base()),
		ROSize: uint64(roBuf.Size()),
		ROKey:  func() uint32 { return keys[1] },
	}
	cfg.Reconnect = func(done func(error)) {
		pair.Reconnect(rogueQPA, rogueQPB, false, func(peer testrig.Peer) {
			if peer.Err == nil {
				keys = peer.RKeys
			}
			done(peer.Err)
		}, pair.BufB, roBuf)
	}
	rogue, err := chaos.NewRogue(pair.A, cfg, nil)
	if err != nil {
		return nil, err
	}
	rogue.Start()
	return rogue, nil
}

// lossPlan is bursty drops at one stationary loss rate both ways plus
// light duplication and reordering, so the NAK, timeout and
// duplicate-READ paths all fire.
func lossPlan(avgLoss float64) chaos.Plan {
	faults := chaos.LinkFaults{
		Loss:        chaos.BurstyLoss(avgLoss),
		DupProb:     0.01,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.01,
		ReorderMax:  5 * sim.Microsecond,
	}
	return chaos.Plan{AtoB: faults, BtoA: faults}
}

// flapPlan schedules periodic link outages of the given length (every
// 2 ms, starting at 300 µs) plus DMA stall windows on both machines tied
// to the same cadence.
func flapPlan(outage sim.Duration) chaos.Plan {
	var p chaos.Plan
	if outage <= 0 {
		return p
	}
	const period = 2 * sim.Millisecond
	for i := 0; i < 8; i++ {
		at := sim.Time(300*sim.Microsecond + sim.Duration(i)*period)
		p.Flaps = append(p.Flaps, chaos.Window{At: at, Dur: outage})
		p.StallsA = append(p.StallsA, chaos.Window{At: at.Add(period / 2), Dur: outage / 2})
		p.StallsB = append(p.StallsB, chaos.Window{At: at.Add(3 * period / 4), Dur: outage / 2})
	}
	return p
}

// chaosRounds is the loss and flap sweeps' client: o.Iterations rounds of
// 32 KiB, and any failed verb fails the point.
func chaosRounds(o Options) deadlineClient { return deadlineClient{ops: o.Iterations, xfer: 32 << 10} }

// count plots a sweep point at its own value.
func count(_ int, n int) (float64, string) { return float64(n), strconv.Itoa(n) }

// The network sweeps' columns: completion time plus the reliability
// counters and the (asserted-zero) violation count.
var netColumns = []string{"completion time (us)", "retransmissions", "timeouts", "faults injected", "invariant violations"}

// ChaosLossSweep sweeps Gilbert–Elliott bursty loss from 0 to 4% (the
// regime the clean scenario's loss phase exercises) and reports
// completion time and reliability activity.
func ChaosLossSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	return sweep("Chaos: bursty loss sweep (10G, Gilbert-Elliott)", "avg loss %", []float64{0, 0.5, 1, 2, 4},
		func(_ int, loss float64) (float64, string) { return loss, fmt.Sprintf("%.1f%%", loss) },
		netColumns, chaosColumns, func(loss float64) (chaosMeasure, error) {
			return pairChaos{plan: lossPlan(loss / 100), client: chaosRounds(o)}.run(o, Exports{})
		})
}

// ChaosFlapSweep sweeps link-flap outage length across the
// retransmission-timer scale (RetransTimeout at 10 G is 500 µs), with DMA
// stall windows riding along.
func ChaosFlapSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	outages := []sim.Duration{0, 100 * sim.Microsecond, 250 * sim.Microsecond, 500 * sim.Microsecond, 1000 * sim.Microsecond}
	return sweep("Chaos: link flap sweep (10G, outages every 2ms)", "outage us", outages,
		func(_ int, d sim.Duration) (float64, string) {
			return d.Microseconds(), fmt.Sprintf("%.0fus", d.Microseconds())
		},
		netColumns, chaosColumns, func(d sim.Duration) (chaosMeasure, error) {
			return pairChaos{plan: flapPlan(d), client: chaosRounds(o)}.run(o, Exports{})
		})
}

// crashClient is the recovery and protection sweeps' client: rounds of
// 16 KiB, each verb bounded by 1.2 ms, far below the ~8.5 ms
// retry-exhaustion horizon.
func crashClient(ops int) deadlineClient {
	return deadlineClient{ops: ops, xfer: 16 << 10, deadline: 1200 * sim.Microsecond}
}

// ChaosRecoverySweep sweeps crash/restart cycles on machine B under 4%
// bursty loss plus one link flap. A detects each death through verb
// deadlines, classifies the typed error and reconnects with exponential
// backoff; every posted verb must complete exactly once, and a fresh PSN
// out of an ERROR-state QP or an unclean PSN restart fails the point.
func ChaosRecoverySweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	return sweep("Chaos: crash/restart recovery sweep (10G, GE loss 4%)", "crash cycles", []int{0, 1, 2, 4}, count,
		[]string{"completion time (us)", "successful ops", "deadline errors", "qp errors", "reconnects", "faults injected", "invariant violations"},
		chaosColumns, func(cycles int) (chaosMeasure, error) { return chaosRecovery(o, cycles).run(o, Exports{}) })
}

// chaosRecovery is one recovery point: the loss regime plus one link flap
// to keep the flap path honest, and a client that rides out a
// loss-induced deadline miss without a reconnect.
func chaosRecovery(o Options, cycles int) pairChaos {
	plan := lossPlan(0.04)
	plan.Flaps = []chaos.Window{{At: sim.Time(2500 * sim.Microsecond), Dur: 100 * sim.Microsecond}}
	client := crashClient(2 * o.Iterations)
	client.transient = true
	return pairChaos{plan: plan, client: client, crashes: cycles}
}

// ChaosProtectSweep sweeps the budget of a rogue requester on A forging
// accesses into B — bad rkeys, stale keys, out-of-bounds lengths, writes
// to a read-only region, unregistered addresses — while the legitimate
// client works under 4% bursty loss and two crash/restart cycles,
// re-fetching rkeys after each restart. A point fails if any forged
// request completes, any invariant (including invariant 9, which watches
// the DMA engine downstream of validation) is violated, or the attack
// drew no NAK at all.
func ChaosProtectSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	return sweep("Chaos: memory protection sweep (10G, GE loss 4%, 2 crash cycles, rogue requester)", "forged requests",
		[]int{0, 4, 8, 16}, count,
		[]string{"completion time (us)", "successful ops", "deadline errors", "qp errors", "reconnects", "rogue rejected",
			"rogue expired", "rogue unexpected", "remote-access NAKs", "validation failures", "invariant violations"},
		chaosColumns, func(forged int) (chaosMeasure, error) { return chaosProtect(o, forged).run(o, Exports{}) })
}

// chaosProtect is one protection point: the loss regime, two crash
// cycles, and a client on real rkeys that re-fetches them after every
// reconnect.
func chaosProtect(o Options, forged int) pairChaos {
	return pairChaos{plan: lossPlan(0.04), client: crashClient(o.Iterations), crashes: 2, protect: true, rogue: chaos.RogueConfig{Ops: forged}}
}

// chaosTelemetryPlan is the canonical chaos scenario's plan: every fault
// class at once — the 4% bursty-loss regime, corruption, duplication,
// reordering, link flaps and DMA stalls on both machines.
func chaosTelemetryPlan() chaos.Plan {
	faults := chaos.LinkFaults{
		Loss:        chaos.BurstyLoss(0.04),
		CorruptProb: 0.005,
		DupProb:     0.02,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.02,
		ReorderMax:  5 * sim.Microsecond,
	}
	plan := chaos.Plan{
		AtoB:  faults,
		BtoA:  faults,
		Flaps: []chaos.Window{{At: sim.Time(200 * sim.Microsecond), Dur: 100 * sim.Microsecond}},
	}
	// Frames held up by a stall leave at its end, so the first flap,
	// opening as A's first stall closes, takes down what A held; a short
	// flap as each of B's stalls closes does the same to B's ACKs and READ
	// responses.
	for i := 0; i < 12; i++ {
		at := sim.Time(sim.Duration(i) * 500 * sim.Microsecond)
		plan.StallsA = append(plan.StallsA, chaos.Window{At: at.Add(50 * sim.Microsecond), Dur: 150 * sim.Microsecond})
		plan.StallsB = append(plan.StallsB, chaos.Window{At: at.Add(250 * sim.Microsecond), Dur: 150 * sim.Microsecond})
		plan.Flaps = append(plan.Flaps, chaos.Window{At: at.Add(400 * sim.Microsecond), Dur: 20 * sim.Microsecond})
	}
	return plan
}

// exportChaos is the chaos scenario's export: sixteen rounds of the loss
// sweep's client under every fault class at once, with a rogue and the
// kernel sandbox riding along, so every protection counter exports a
// real value. On seeds where loss bursts, DMA stalls and rogue reconnects
// line up the workload stalls past the no-progress watchdog's 2 ms hold,
// which is why the scenario allows that alert.
func exportChaos(o Options, ex Exports) error {
	c := pairChaos{plan: chaosTelemetryPlan(), client: deadlineClient{ops: 16, xfer: 32 << 10}, protect: true,
		rogue:   chaos.RogueConfig{Ops: 6, OpDeadline: 500 * sim.Microsecond, Backoff: 20 * sim.Microsecond},
		sandbox: true}
	_, err := c.run(o.normalized(), ex)
	return err
}
