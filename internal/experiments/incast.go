package experiments

import (
	"fmt"

	"strom/internal/fabric"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/stats"
)

// The incast experiment stresses the switched fabric the paper's
// two-machine testbed never exercises: K senders converge on one
// receiver port while a victim flow from sender 0 to an otherwise idle
// machine shares the congested uplink. With PFC alone the switch pauses
// sender 0's entire priority (congestion spreading — the victim is
// head-of-line blocked behind the incast); with DCQCN the senders'
// rates to the hot port are cut by CNPs before the pause watermark is
// reached and the victim keeps its throughput.

// incastKs is the sweep's x axis: K senders converging on one port.
var incastKs = []int{2, 4, 8}

// incastXfer is the per-write transfer size of every incast flow.
const incastXfer = 4 << 10

// IncastSwitchConfig is the switch tuning the incast experiments and
// tests share: 10G ports, a shared pool large enough that PFC always
// engages before overflow (lossless), a pause watermark low enough that
// pause/resume cycles stay well under the 500 µs retransmission
// timeout, and an ECN threshold at half the pause watermark so DCQCN
// reacts first.
func IncastSwitchConfig() fabric.SwitchConfig {
	return fabric.SwitchConfig{
		Link:              fabric.DirectCable10G(),
		Forwarding:        500 * sim.Nanosecond,
		BufferBytes:       512 << 10,
		PFCPauseBytes:     32 << 10,
		ECNThresholdBytes: 16 << 10,
	}
}

// IncastMeasure is one incast run's outcome.
type IncastMeasure struct {
	VictimElapsed sim.Duration // victim flow completion time
	VictimBytes   int          // bytes the victim flow moved
	TotalElapsed  sim.Duration // whole run (last incast flow done)
	PFCPauses     uint64       // switch-wide PFC pause frames emitted
	EcnMarked     uint64       // switch-wide CE marks
	Discards      uint64       // switch-wide discards (all causes)
	CNPsSent      uint64       // CNPs reflected by the receivers
	Violations    int          // protocol invariant violations (must be 0)
}

// incastStorm is one K→1 incast with the victim flow riding along:
// senders 0..k-1 converge on receiver k while sender 0 also writes to
// the idle machine k+1.
type incastStorm struct {
	k                          int
	incastWrites, victimWrites int          // per flow
	dcqcn                      bool         // DCQCN on every stack…
	dcqcnAfter                 sim.Duration // …switched on this far into the storm (0 = from the start)
}

// run drives the storm on the switched bed and writes the exports ex
// asks for. The invariant checkers on every stack must stay silent.
func (s incastStorm) run(seed int64, ex Exports) (IncastMeasure, error) {
	label := fmt.Sprintf("incast k=%d", s.k)
	recv, idle := s.k, s.k+1
	m := IncastMeasure{VictimBytes: s.victimWrites * incastXfer}
	b, err := newBed(seed, s.k+2, ex)
	if err != nil {
		return m, err
	}
	net := b.net

	base := func(i int) uint64 { return uint64(net.Machines[i].Buf.Base()) }
	for i := 0; i < s.k; i++ {
		qp, _, err := net.Connect(i, recv)
		if err != nil {
			return m, err
		}
		b.writeTrain(i, qp, base(i), base(recv)+uint64(i)*incastXfer, s.incastWrites, 0, nil)
	}
	vqp, _, err := net.Connect(0, idle)
	if err != nil {
		return m, err
	}
	victim := net.Machines[0]
	b.writeTrain(0, vqp, base(0)+incastXfer, base(idle), s.victimWrites, 0,
		func() { m.VictimElapsed = victim.Eng.Now().Sub(0) })
	switch {
	case s.dcqcn && s.dcqcnAfter == 0:
		net.EnableDCQCN(roce.DefaultDCQCN())
	case s.dcqcn:
		// The senders' first CNPs arrive moments later and the
		// pause/resume churn dies out — visible in the jsonl stream as
		// the pfc-pause alert resolving while cnps_tx climbs.
		net.SwEng.Schedule(s.dcqcnAfter, func() { net.EnableDCQCN(roce.DefaultDCQCN()) })
	}
	b.probe()
	b.record(2 * sim.Microsecond)
	m.TotalElapsed = net.Run().Sub(0)

	m.Violations, err = b.gate(label)
	for i := 0; i < net.Sw.NumPorts(); i++ {
		st := net.Sw.PortStats(i)
		m.PFCPauses += st.PauseTx
		m.EcnMarked += st.EcnMarked
		m.Discards += st.Discards
	}
	for _, mm := range net.Machines {
		m.CNPsSent += mm.NIC.Stack().Stats().CnpsSent
	}
	if err != nil {
		return m, err
	}
	return m, b.export()
}

// RunIncast drives one K→1 incast with the victim flow riding along,
// on the switched testbed, and returns the measured outcome. Flow sizes
// scale with o.Iterations.
func RunIncast(o Options, k int, dcqcn bool) (IncastMeasure, error) {
	o = o.normalized()
	s := incastStorm{k: k, incastWrites: 8 * o.Iterations, victimWrites: 4 * o.Iterations, dcqcn: dcqcn}
	return s.run(o.Seed, Exports{})
}

// ChaosIncastSweep sweeps K∈{2,4,8} senders into one port with and
// without DCQCN and reports the victim flow's completion time next to
// the switch's PFC/ECN activity. The invariant checkers on every stack
// must stay silent at every point.
func ChaosIncastSweep(o Options) (*stats.Figure, error) {
	o = o.normalized()
	fig := stats.NewFigure("Chaos: K-to-1 incast through PFC/ECN switch, victim flow", "K senders", "see series")
	off := fig.NewSeries("victim completion us (dcqcn off)")
	on := fig.NewSeries("victim completion us (dcqcn on)")
	pauses := fig.NewSeries("pfc pauses (dcqcn off)")
	marks := fig.NewSeries("ecn marks (dcqcn on)")
	cnps := fig.NewSeries("cnps (dcqcn on)")
	drops := fig.NewSeries("switch discards")
	viol := fig.NewSeries("invariant violations")
	for _, k := range incastKs {
		moff, err := RunIncast(o, k, false)
		if err != nil {
			return nil, fmt.Errorf("incast k=%d dcqcn=off: %w", k, err)
		}
		mon, err := RunIncast(o, k, true)
		if err != nil {
			return nil, fmt.Errorf("incast k=%d dcqcn=on: %w", k, err)
		}
		x, label := float64(k), fmt.Sprintf("%d", k)
		off.Add(x, label, moff.VictimElapsed.Microseconds())
		on.Add(x, label, mon.VictimElapsed.Microseconds())
		pauses.Add(x, label, float64(moff.PFCPauses))
		marks.Add(x, label, float64(mon.EcnMarked))
		cnps.Add(x, label, float64(mon.CNPsSent))
		drops.Add(x, label, float64(moff.Discards+mon.Discards))
		viol.Add(x, label, float64(moff.Violations+mon.Violations))
	}
	return fig, nil
}

// exportIncast is the incast scenario's export: one 4→1 storm in two
// phases. DCQCN starts disabled, so PFC pause/resume cycles and ECN
// marks accumulate; halfway through the flows every stack enables it,
// so the CNP/pacing counters export real values and the pauses die out.
func exportIncast(o Options, ex Exports) error {
	o = o.normalized()
	writes := 24 * o.Iterations
	s := incastStorm{k: 4, incastWrites: writes, victimWrites: 8 * o.Iterations,
		dcqcn: true, dcqcnAfter: sim.Duration(writes) * 8 * sim.Microsecond}
	_, err := s.run(o.Seed, ex)
	return err
}
