package experiments

import (
	"errors"
	"fmt"

	"strom/internal/chaos"
	"strom/internal/hostmem"
	"strom/internal/kernels/traversal"
	"strom/internal/mr"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/testrig"
)

// The chaos suite stresses the §4.3 reliability machinery — go-back-N,
// RETH-snapshot replay, the duplicate-READ cache — under adverse networks
// the paper's clean testbed never shows: bursty loss, reordering,
// duplication, link flaps and PCIe stalls. Every run attaches the
// protocol invariant checker to both stacks; a generator fails (rather
// than plotting garbage) if any transport invariant is violated.

// chaosLossPoints is the loss sweep's x axis: stationary loss rate in
// percent, up to the 4% regime the clean scenario's loss phase exercises.
var chaosLossPoints = []float64{0, 0.5, 1, 2, 4}

// chaosFlapPoints is the flap sweep's x axis: outage length in µs
// (RetransTimeout at 10 G is 500 µs, so the sweep crosses the timer).
var chaosFlapPoints = []sim.Duration{0, 100 * sim.Microsecond, 250 * sim.Microsecond, 500 * sim.Microsecond, 1000 * sim.Microsecond}

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

// chaosMeasure is one chaos point's outcome.
type chaosMeasure struct {
	elapsed    sim.Duration
	retrans    uint64
	timeouts   uint64
	dupHits    uint64
	faults     uint64
	violations int
}

// chaosRegions lays out what the chaos, recovery and protection
// workloads move xfer bytes between: A's buffer, a WRITE target at the
// start of B's buffer, and a READ source of static random bytes in its
// second half.
func chaosRegions(pair *testrig.Pair, xfer int) (localA, writeB, readB uint64, err error) {
	read := pair.BufB.Base() + hostmem.Addr(pair.BufB.Size()/2)
	static := make([]byte, xfer)
	pair.Eng.Rand().Read(static)
	err = pair.B.Memory().WriteVirt(read, static)
	return uint64(pair.BufA.Base()), uint64(pair.BufB.Base()), uint64(read), err
}

// The rogue requester's channel: a second QP pair beside QPA/QPB.
const (
	rogueQPA uint32 = 3
	rogueQPB uint32 = 4
)

// startPairRogue starts a rogue requester on machine A forging accesses
// into B's buffer and into roBuf, a read-only region on B (its key is
// perfectly valid, only the access class is wrong for a WRITE). cfg
// carries the attack budget and pacing.
func startPairRogue(pair *testrig.Pair, roBuf *hostmem.Buffer, cfg chaos.RogueConfig) (*chaos.Rogue, error) {
	if err := pair.AddQueuePair(rogueQPA, rogueQPB); err != nil {
		return nil, err
	}
	cfg.QPN = rogueQPA
	cfg.LocalVA = uint64(pair.BufA.Base()) + uint64(pair.BufA.Size()/2)
	cfg.Target = chaos.RogueTarget{
		Base:   uint64(pair.BufB.Base()),
		Size:   uint64(pair.BufB.Size()),
		Key:    func() uint32 { return pair.B.RegionFor(uint64(pair.BufB.Base())).RKey() },
		ROBase: uint64(roBuf.Base()),
		ROSize: uint64(roBuf.Size()),
		ROKey:  func() uint32 { return pair.B.RegionFor(uint64(roBuf.Base())).RKey() },
	}
	cfg.Reconnect = func() error { return pair.ReconnectPair(rogueQPA, rogueQPB) }
	rogue, err := chaos.NewRogue(pair.A, cfg, nil)
	if err != nil {
		return nil, err
	}
	rogue.Start()
	return rogue, nil
}

// runChaosPoint drives the chaos workload — rounds of a WRITE into the
// first half of B's buffer and a READ of a static region in the second
// half — under the plan, with invariant checkers on both stacks, and
// writes the exports ex asks for.
//
// With protect set the run exercises the whole memory-protection
// surface beside the legitimate workload, so every protection counter
// exports with a real value: a rogue requester forges bad accesses on a
// second QP pair (roce_nak_remote_access, mr_validation_fail), and one
// traversal RPC is sent chasing a pointer into unregistered memory so
// the kernel sandbox fires (kernel_mr_fault).
func runChaosPoint(o Options, plan chaos.Plan, rounds int, protect bool, ex Exports) (chaosMeasure, error) {
	var m chaosMeasure
	pair, err := newPair(o.unsharded(), profile10G(), 8<<20)
	if err != nil {
		return m, err
	}
	var roBuf *hostmem.Buffer
	if protect {
		// Read-only region on B: the rogue's permission-attack target.
		if roBuf, err = pair.B.AllocBufferFlags(1<<20, mr.AccessRemoteRead); err != nil {
			return m, err
		}
		if err := pair.B.DeployKernel(traversalOp, traversal.New(0)); err != nil {
			return m, err
		}
	}
	taps := tapPair(pair, ex)
	inj, ca, cb := pair.ApplyChaos(plan)
	if taps.tel != nil {
		inj.AttachTelemetry(taps.tel.Registry)
	}
	var rogue *chaos.Rogue
	if protect {
		if err := pair.ExchangeRKeys(testrig.QPA, testrig.QPB); err != nil {
			return m, err
		}
		rogue, err = startPairRogue(pair, roBuf, chaos.RogueConfig{Ops: 6, OpDeadline: 500 * sim.Microsecond, Backoff: 20 * sim.Microsecond})
		if err != nil {
			return m, err
		}
	}

	const xfer = 32 << 10
	localA, writeB, readB, err := chaosRegions(pair, xfer)
	if err != nil {
		return m, err
	}

	var runErr error
	pair.Eng.Go("chaos-client", func(p *sim.Process) {
		for i := 0; i < rounds; i++ {
			if runErr = pair.A.WriteSync(p, testrig.QPA, localA, writeB, xfer); runErr != nil {
				return
			}
			if runErr = pair.A.ReadSync(p, testrig.QPA, readB, localA, xfer); runErr != nil {
				return
			}
		}
		m.elapsed = pair.Eng.Now().Sub(0)
		if !protect {
			return
		}
		// Kernel-sandbox phase: chase a pointer into unregistered memory.
		// The kernel's first element fetch faults, the RPC completes with
		// StatusFault, and kernel_mr_fault exports as 1.
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
	if rogue != nil && rogue.Stats().Unexpected > 0 {
		vio = append(vio, fmt.Sprintf("rogue: %d forged requests completed (protection failed)", rogue.Stats().Unexpected))
	}
	m.violations = len(vio)
	if err := violationError("chaos", vio); err != nil {
		return m, err
	}
	sa, sb := pair.A.Stack().Stats(), pair.B.Stack().Stats()
	m.retrans = sa.Retransmissions + sb.Retransmissions
	m.timeouts = sa.Timeouts + sb.Timeouts
	m.dupHits = sa.DupReadCacheHits + sb.DupReadCacheHits
	m.faults = inj.Stats().Total()
	return m, taps.export()
}

// chaosFigure renders one sweep: workload completion time plus the
// reliability counters and the (asserted-zero) violation count.
func chaosFigure(title, xName string) (*stats.Figure, [5]*stats.Series) {
	fig := stats.NewFigure(title, xName, "see series")
	var s [5]*stats.Series
	s[0] = fig.NewSeries("completion time (us)")
	s[1] = fig.NewSeries("retransmissions")
	s[2] = fig.NewSeries("timeouts")
	s[3] = fig.NewSeries("faults injected")
	s[4] = fig.NewSeries("invariant violations")
	return fig, s
}

func addChaosPoint(s [5]*stats.Series, x float64, label string, m chaosMeasure) {
	s[0].Add(x, label, m.elapsed.Microseconds())
	s[1].Add(x, label, float64(m.retrans))
	s[2].Add(x, label, float64(m.timeouts))
	s[3].Add(x, label, float64(m.faults))
	s[4].Add(x, label, float64(m.violations))
}

// chaosLossPlan is the loss sweep's fault mix at one stationary loss
// rate: bursty drops both ways plus light duplication and reordering, so
// the NAK, timeout and duplicate-READ paths all fire.
func chaosLossPlan(avgLoss float64) chaos.Plan {
	faults := chaos.LinkFaults{
		Loss:        chaos.BurstyLoss(avgLoss),
		DupProb:     0.01,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.01,
		ReorderMax:  5 * sim.Microsecond,
	}
	return chaos.Plan{AtoB: faults, BtoA: faults}
}

// ChaosLossSweep sweeps Gilbert–Elliott bursty loss from 0 to 4% and
// reports completion time and reliability activity; the invariant
// checkers must stay silent at every point.
func ChaosLossSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig, series := chaosFigure("Chaos: bursty loss sweep (10G, Gilbert-Elliott)", "avg loss %")
	for _, loss := range chaosLossPoints {
		m, err := runChaosPoint(o, chaosLossPlan(loss/100), o.Iterations, false, Exports{})
		if err != nil {
			return nil, fmt.Errorf("loss %.1f%%: %w", loss, err)
		}
		addChaosPoint(series, loss, fmt.Sprintf("%.1f%%", loss), m)
	}
	return fig, nil
}

// chaosFlapPlan schedules periodic link outages of the given length
// (every 2 ms, starting at 300 µs) plus DMA stall windows on both
// machines tied to the same cadence.
func chaosFlapPlan(outage sim.Duration) chaos.Plan {
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

// ChaosFlapSweep sweeps link-flap outage length across the
// retransmission-timer scale, with DMA stall windows riding along.
func ChaosFlapSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig, series := chaosFigure("Chaos: link flap sweep (10G, outages every 2ms)", "outage us")
	for _, outage := range chaosFlapPoints {
		m, err := runChaosPoint(o, chaosFlapPlan(outage), o.Iterations, false, Exports{})
		if err != nil {
			return nil, fmt.Errorf("outage %v: %w", outage, err)
		}
		addChaosPoint(series, outage.Microseconds(), fmt.Sprintf("%.0fus", outage.Microseconds()), m)
	}
	return fig, nil
}

// chaosTelemetryPlan is the canonical chaos scenario's plan: every fault
// class at once — the 4% bursty-loss regime, corruption, duplication,
// reordering, two link flaps and DMA stalls on both machines.
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
		AtoB: faults,
		BtoA: faults,
		Flaps: []chaos.Window{
			{At: sim.Time(200 * sim.Microsecond), Dur: 100 * sim.Microsecond},
			{At: sim.Time(1500 * sim.Microsecond), Dur: 50 * sim.Microsecond},
		},
	}
	for i := 0; i < 12; i++ {
		at := sim.Time(sim.Duration(i) * 500 * sim.Microsecond)
		plan.StallsA = append(plan.StallsA, chaos.Window{At: at.Add(50 * sim.Microsecond), Dur: 150 * sim.Microsecond})
		plan.StallsB = append(plan.StallsB, chaos.Window{At: at.Add(250 * sim.Microsecond), Dur: 150 * sim.Microsecond})
	}
	return plan
}

// exportChaos is the chaos scenario's export: sixteen rounds of the
// chaos workload under every fault class at once, with the protection
// phases riding along. On seeds where loss bursts, DMA stalls and rogue
// reconnects line up the workload stalls past the no-progress
// watchdog's 2 ms hold, which is why the scenario allows that alert.
func exportChaos(o Options, ex Exports) error {
	_, err := runChaosPoint(o.normalized(), chaosTelemetryPlan(), 16, true, ex)
	return err
}
