package roce

import (
	"bytes"
	"testing"

	"strom/internal/fabric"
	"strom/internal/packet"
	"strom/internal/sim"
)

// newMarkedPair is newPair with a CE-marking tap on the A→B direction:
// while *mark is true every frame A transmits is CE-marked in flight,
// standing in for a congested switch on the path. The ICRC stays valid
// because it excludes the mutable IP ECN bits, exactly like RoCE v2.
func newMarkedPair(t *testing.T, seed int64, cfg Config, linkCfg fabric.LinkConfig, mark *bool) *pair {
	t.Helper()
	eng := sim.NewEngine(seed)
	ha := newMemHandler(eng, 1<<24)
	hb := newMemHandler(eng, 1<<24)
	idA := Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.AddrOf(10, 0, 0, 1)}
	idB := Identity{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.AddrOf(10, 0, 0, 2)}
	var link *fabric.Link
	a := NewStack(eng, cfg, idA, ha, func(f []byte) {
		if *mark {
			packet.MarkCongestion(f)
		}
		link.SendFromA(f)
	})
	b := NewStack(eng, cfg, idB, hb, func(f []byte) { link.SendFromB(f) })
	link = fabric.NewLink(eng, linkCfg, a, b)
	if err := a.CreateQP(1, idB, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateQP(2, idA, 1); err != nil {
		t.Fatal(err)
	}
	return &pair{eng: eng, a: a, b: b, ha: ha, hb: hb, link: link}
}

// tickFor keeps the engine alive with no-op regular events so daemon
// timers (the DCQCN recovery timer) get simulated time to run in.
func tickFor(eng *sim.Engine, period sim.Duration, n int) {
	var tick func()
	left := n
	tick = func() {
		left--
		if left > 0 {
			eng.Schedule(period, tick)
		}
	}
	eng.Schedule(period, tick)
}

// qpRate reports a QP's current DCQCN sending rate: the line rate when
// DCQCN is off or the QP has never been throttled.
func qpRate(s *Stack, qpn uint32) float64 {
	st, err := s.st.get(qpn)
	if err != nil || st.cc == nil {
		return s.cfg.LineRateGbps
	}
	return st.cc.rate
}

// TestDCQCNCNPLoop drives the whole control loop end to end: CE-marked
// delivery makes the NP reflect CNPs (gated by the CNP interval), the
// RP cuts and paces, and once marking stops the recovery timer climbs
// the rate back to line and self-cancels.
func TestDCQCNCNPLoop(t *testing.T) {
	mark := true
	p := newMarkedPair(t, 1, Config10G(), fabric.DirectCable10G(), &mark)
	p.a.EnableDCQCN(DefaultDCQCN())
	p.b.EnableDCQCN(DefaultDCQCN())

	const writes = 32
	const size = 4096
	done := 0
	midRate := -1.0
	p.eng.Schedule(0, func() {
		for i := 0; i < writes; i++ {
			i := i
			data := bytes.Repeat([]byte{byte(i + 1)}, size)
			err := p.a.PostWrite(1, uint64(i*size), data, func(err error) {
				if err != nil {
					t.Errorf("write %d: %v", i, err)
				}
				done++
				if done == writes/2 {
					midRate = qpRate(p.a, 1)
				}
				if done == writes {
					// Storm over: stop marking and give the recovery
					// timer 1 ms of simulated time to reach line rate.
					mark = false
					tickFor(p.eng, 10*sim.Microsecond, 100)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	p.eng.Run()

	if done != writes {
		t.Fatalf("completed %d of %d writes", done, writes)
	}
	for i := 0; i < writes; i++ {
		if got := p.hb.buf[i*size]; got != byte(i+1) {
			t.Fatalf("write %d delivered %#x", i, got)
		}
	}
	as, bs := p.a.Stats(), p.b.Stats()
	if bs.EcnMarkedRx == 0 {
		t.Fatal("no CE-marked frames delivered at the NP")
	}
	if bs.CnpsSent == 0 {
		t.Fatal("NP never reflected a CNP")
	}
	if bs.CnpsSent >= bs.EcnMarkedRx {
		t.Errorf("CNP interval gate never engaged: %d CNPs for %d marked frames", bs.CnpsSent, bs.EcnMarkedRx)
	}
	if as.CnpsReceived != bs.CnpsSent {
		t.Errorf("RP received %d CNPs, NP sent %d", as.CnpsReceived, bs.CnpsSent)
	}
	if as.PacedFrames == 0 {
		t.Error("RP never paced a frame despite rate cuts")
	}
	if bs.PacedFrames != 0 {
		t.Errorf("responder paced %d frames; recycle frames must bypass the limiter", bs.PacedFrames)
	}
	if midRate < 0 || midRate >= Config10G().LineRateGbps {
		t.Errorf("mid-storm rate = %.3f Gbps, want below line", midRate)
	}
	if got := qpRate(p.a, 1); got < 0.999*Config10G().LineRateGbps {
		t.Errorf("rate after recovery = %.3f Gbps, want line", got)
	}
	st, err := p.a.st.get(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.cc.timer.Pending() {
		t.Error("recovery timer still pending after reaching line rate")
	}
}

// TestDCQCNOffMarkedFramesByteIdentical proves the off-by-default
// contract: with cc == nil a CE-marked stream counts EcnMarkedRx but
// produces no CNPs, no pacing, no rate change — and the run is
// otherwise byte-identical (same completion time, same stats) to the
// same workload with no marking at all.
func TestDCQCNOffMarkedFramesByteIdentical(t *testing.T) {
	run := func(marked bool) (Stats, Stats, sim.Time) {
		mark := marked
		p := newMarkedPair(t, 1, Config10G(), fabric.DirectCable10G(), &mark)
		const writes = 8
		const size = 4096
		done := 0
		p.eng.Schedule(0, func() {
			for i := 0; i < writes; i++ {
				data := bytes.Repeat([]byte{byte(i + 1)}, size)
				if err := p.a.PostWrite(1, uint64(i*size), data, func(err error) {
					if err != nil {
						t.Errorf("write: %v", err)
					}
					done++
				}); err != nil {
					t.Fatal(err)
				}
			}
		})
		end := p.eng.Run()
		if done != writes {
			t.Fatalf("completed %d of %d writes", done, writes)
		}
		return p.a.Stats(), p.b.Stats(), end
	}

	aOff, bOff, endOff := run(false)
	aOn, bOn, endOn := run(true)

	if bOn.EcnMarkedRx == 0 {
		t.Fatal("marked run delivered no CE frames")
	}
	if bOn.CnpsSent != 0 || aOn.CnpsReceived != 0 {
		t.Errorf("CNPs with DCQCN off: sent=%d received=%d", bOn.CnpsSent, aOn.CnpsReceived)
	}
	if aOn.PacedFrames != 0 {
		t.Errorf("paced %d frames with DCQCN off", aOn.PacedFrames)
	}
	if endOn != endOff {
		t.Errorf("completion time changed with marking: %v vs %v", endOn, endOff)
	}
	// Everything except the CE counter must match exactly.
	bOn.EcnMarkedRx = bOff.EcnMarkedRx
	if aOn != aOff {
		t.Errorf("requester stats diverged:\n off=%+v\n  on=%+v", aOff, aOn)
	}
	if bOn != bOff {
		t.Errorf("responder stats diverged:\n off=%+v\n  on=%+v", bOff, bOn)
	}
}

// TestDCQCNHandleCNPMath checks the RP reaction arithmetic directly:
// alpha EWMA, multiplicative decrease scaled by alpha/2, the target
// snapshot, and the MinRateGbps floor under repeated CNPs.
func TestDCQCNHandleCNPMath(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	cfg := DefaultDCQCN()
	p.a.EnableDCQCN(cfg)
	st, err := p.a.st.get(1)
	if err != nil {
		t.Fatal(err)
	}
	line := Config10G().LineRateGbps

	p.eng.Schedule(0, func() {
		p.a.handleCNP(1, st)
		q := st.cc
		// alpha starts at 1 and the EWMA keeps it there: (1-g)·1+g = 1.
		if q.alpha != 1 {
			t.Errorf("alpha after first CNP = %v, want 1", q.alpha)
		}
		if q.target != line {
			t.Errorf("target = %v, want pre-cut rate %v", q.target, line)
		}
		if want := line * 0.5; q.rate != want {
			t.Errorf("rate = %v, want %v (MD by alpha/2)", q.rate, want)
		}
		if q.stage != 0 {
			t.Errorf("stage = %d, want 0", q.stage)
		}
		if !q.timer.Pending() {
			t.Error("recovery timer not armed")
		}
		// Hammer the QP: the rate must floor at MinRateGbps, never 0.
		for i := 0; i < 20; i++ {
			p.a.handleCNP(1, st)
		}
		if q.rate != cfg.MinRateGbps {
			t.Errorf("rate after CNP storm = %v, want floor %v", q.rate, cfg.MinRateGbps)
		}
	})
	p.eng.Run()
	if got := p.a.Stats().CnpsReceived; got != 21 {
		t.Errorf("CnpsReceived = %d, want 21", got)
	}
}

// TestDCQCNRecoveryClimb checks the timer half: fast recovery halves
// the gap to the target each period, additive increase kicks in after
// FastRecovery periods, and the timer self-cancels at line rate.
func TestDCQCNRecoveryClimb(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	cfg := DefaultDCQCN()
	p.a.EnableDCQCN(cfg)
	st, err := p.a.st.get(1)
	if err != nil {
		t.Fatal(err)
	}
	line := Config10G().LineRateGbps

	var rates []float64
	p.eng.Schedule(0, func() {
		p.a.handleCNP(1, st) // cut to line/2, target = line
	})
	// Sample the rate every recovery period for 1 ms.
	for i := 1; i <= 50; i++ {
		i := i
		p.eng.Schedule(sim.Duration(i)*cfg.RateTimer+cfg.RateTimer/2, func() {
			rates = append(rates, st.cc.rate)
		})
	}
	p.eng.Run()

	if len(rates) != 50 {
		t.Fatalf("sampled %d rates", len(rates))
	}
	// First period: (line/2 + line)/2 = 0.75·line.
	if want := 0.75 * line; rates[0] != want {
		t.Errorf("rate after one period = %v, want %v", rates[0], want)
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] < rates[i-1] {
			t.Fatalf("recovery not monotone: %v then %v", rates[i-1], rates[i])
		}
	}
	if rates[len(rates)-1] != line {
		t.Errorf("final rate = %v, want line %v", rates[len(rates)-1], line)
	}
	if st.cc.timer.Pending() {
		t.Error("recovery timer still armed at line rate")
	}
}

// TestDCQCNCNPIntervalGate checks the NP side in isolation: back-to-back
// CE deliveries within CNPInterval collapse into one CNP; a delivery
// after the interval reflects another.
func TestDCQCNCNPIntervalGate(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	cfg := DefaultDCQCN()
	p.b.EnableDCQCN(cfg)
	st, err := p.b.st.get(2)
	if err != nil {
		t.Fatal(err)
	}

	p.eng.Schedule(0, func() {
		p.b.noteCongestion(st)
		p.b.noteCongestion(st)
		p.b.noteCongestion(st)
	})
	p.eng.Schedule(cfg.CNPInterval+sim.Microsecond, func() {
		p.b.noteCongestion(st)
	})
	p.eng.Run()

	if got := p.b.Stats().CnpsSent; got != 2 {
		t.Errorf("CnpsSent = %d, want 2 (one per interval)", got)
	}
	// The reflected CNPs actually crossed the wire to the RP.
	if got := p.a.Stats().CnpsReceived; got != 2 {
		t.Errorf("RP CnpsReceived = %d, want 2", got)
	}
}

// TestDCQCNPaceFrameSpacing checks the rate limiter's credit math: at a
// throttled rate successive frames are spaced by their wire time at
// that rate, and the first frame is never delayed.
func TestDCQCNPaceFrameSpacing(t *testing.T) {
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	p.a.EnableDCQCN(DefaultDCQCN())
	st, err := p.a.st.get(1)
	if err != nil {
		t.Fatal(err)
	}

	const frameLen = 1000
	rate := 1.0 // Gbps
	wire := sim.BytesAt(frameLen+packet.EthFramingOverhead, rate)
	p.eng.Schedule(0, func() {
		q := p.a.ccState(st)
		q.rate = rate
		now := p.eng.Now()
		for i := 0; i < 4; i++ {
			start := p.a.paceFrame(st, frameLen)
			if want := now.Add(sim.Duration(i) * wire); start != want {
				t.Errorf("frame %d start = %v, want %v", i, start, want)
			}
		}
	})
	p.eng.Run()
}
