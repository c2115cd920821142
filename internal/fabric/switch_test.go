package fabric

import (
	"testing"

	"strom/internal/packet"
	"strom/internal/sim"
)

// mkframe builds a frame of n bytes addressed to dst, long enough to
// carry the Ethernet+IPv4 headers ECN marking patches.
func mkframe(dst packet.MAC, n int) []byte {
	if n < packet.EthHeaderLen+packet.IPv4HeaderLen {
		n = packet.EthHeaderLen + packet.IPv4HeaderLen
	}
	f := make([]byte, n)
	copy(f[0:6], dst[:])
	// A plausible IPv4 header (version 4, IHL 5) so the in-flight ECN
	// patch edits a real codepoint field rather than arbitrary bytes.
	f[packet.EthHeaderLen] = 0x45
	return f
}

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 1}
	macB = packet.MAC{2, 0, 0, 0, 0, 2}
	macC = packet.MAC{2, 0, 0, 0, 0, 3}
)

// pfcCase is one PFC state-machine scenario: two senders converge on
// one receiver through a switch with the given pause watermark (resume
// at half of it), each injecting frames back to back, and the table
// states the exact pause/resume frame counts the crossing discipline
// must produce.
type pfcCase struct {
	name       string
	pauseBytes int
	frames     int // frames per sender
	frameLen   int
	paced      bool   // pace sends at wire rate (pause lands mid-stream)
	wantPauses uint64 // per sender port: exact for bursts, minimum when paced
	exact      bool
}

// runPFCCase drives the scenario and returns the switch, the sender
// NIC-side ports and the receiver sink.
func runPFCCase(t *testing.T, c pfcCase) (*Switch, [2]*Port, *sink) {
	t.Helper()
	eng := sim.NewEngine(1)
	sw := NewSwitchCfg(eng, SwitchConfig{
		Link:          DirectCable10G(),
		Forwarding:    500 * sim.Nanosecond,
		PFCPauseBytes: c.pauseBytes,
	})
	recv := &sink{eng: eng}
	var ports [2]*Port
	ports[0] = sw.AttachPortOn(eng, macA, &sink{eng: eng})
	ports[1] = sw.AttachPortOn(eng, macB, &sink{eng: eng})
	sw.AttachPortOn(eng, macC, recv)
	// Paced: each sender sends at its uplink's wire rate, so the pause
	// frame lands mid-stream and later frames are held at the NIC.
	// Burst: everything enters the uplink at t=0 — the switch crosses
	// the watermark while admissions continue far above it, which is
	// what makes "exactly one pause per crossing" non-vacuous.
	gap := sim.Duration(0)
	if c.paced {
		gap = sim.BytesAt(c.frameLen+packet.EthFramingOverhead, 10)
	}
	eng.Schedule(0, func() {
		for i := 0; i < c.frames; i++ {
			eng.ScheduleAt(sim.Time(sim.Duration(i)*gap), func() {
				ports[0].Send(mkframe(macC, c.frameLen))
				ports[1].Send(mkframe(macC, c.frameLen))
			})
		}
	})
	eng.Run()
	return sw, ports, recv
}

// The PFC state machine: pause is emitted exactly once per watermark
// crossing (never re-emitted while paused), resume exactly once when
// usage falls back to the low watermark, and a paused port buffers
// frames instead of dropping them — every injected frame is delivered.
func TestPFCStateMachine(t *testing.T) {
	cases := []pfcCase{
		// Watermark far above anything two senders can buffer: PFC
		// never engages.
		{name: "no-crossing", pauseBytes: 1 << 20,
			frames: 20, frameLen: 1000, wantPauses: 0, exact: true},
		// One burst per sender, entirely on the uplink before the pause
		// can land: the switch admits 40+ frames above the watermark but
		// emits exactly one pause at the crossing and exactly one resume
		// as the egress drains back to the low watermark.
		{name: "burst-pause-exactly-once", pauseBytes: 4000,
			frames: 50, frameLen: 1000, wantPauses: 1, exact: true},
		// Paced stream: the pause lands mid-stream, the NIC holds frames
		// behind it, and the stream fragments into several pause/resume
		// cycles — each crossing emits exactly one pair.
		{name: "paced-cycles", pauseBytes: 4000,
			frames: 50, frameLen: 1000, paced: true, wantPauses: 2},
		// A watermark of two frames: the resume mark is a single frame,
		// so cycles are short and frequent.
		{name: "tight-watermarks", pauseBytes: 2000,
			frames: 50, frameLen: 1000, paced: true, wantPauses: 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sw, ports, recv := runPFCCase(t, c)
			for i := 0; i < 2; i++ {
				st := sw.PortStats(i)
				if c.exact && st.PauseTx != c.wantPauses {
					t.Errorf("port %d: pauses=%d, want exactly %d", i, st.PauseTx, c.wantPauses)
				}
				if !c.exact && st.PauseTx < c.wantPauses {
					t.Errorf("port %d: pauses=%d, want at least %d", i, st.PauseTx, c.wantPauses)
				}
				if st.PauseTx != st.ResumeTx {
					t.Errorf("port %d: %d pauses but %d resumes — unmatched transition",
						i, st.PauseTx, st.ResumeTx)
				}
				if st.Discards != 0 {
					t.Errorf("port %d: %d discards — PFC must buffer, not drop", i, st.Discards)
				}
				ps := ports[i].Stats()
				if ps.PauseRx != st.PauseTx || ps.ResumeRx != st.ResumeTx {
					t.Errorf("port %d: NIC saw %d/%d pause/resume, switch sent %d/%d",
						i, ps.PauseRx, ps.ResumeRx, st.PauseTx, st.ResumeTx)
				}
				if c.paced && c.wantPauses > 0 && ps.FramesHeld == 0 {
					t.Errorf("port %d: paused mid-stream but no frames were held at the NIC", i)
				}
				if held := len(ports[i].held); held != 0 {
					t.Errorf("port %d: %d frames still held after the run", i, held)
				}
			}
			if got, want := len(recv.frames), 2*c.frames; got != want {
				t.Errorf("delivered %d frames, want %d (lossless)", got, want)
			}
			if sw.totalUsed != 0 {
				t.Errorf("%d bytes stuck in the shared pool after the run", sw.totalUsed)
			}
		})
	}
}

// hopper forwards every delivered frame to the next MAC for a fixed
// number of hops — the relay that closes a traffic cycle across switch
// ports.
type hopper struct {
	tx   *Port
	next packet.MAC
	hops *int
	stop int
}

func (h *hopper) DeliverFrame(f []byte) {
	*h.hops++
	if *h.hops >= h.stop {
		return
	}
	h.tx.Send(mkframe(h.next, len(f)))
}

// A 3-port traffic cycle (A→B→C→A) under watermarks low enough that
// every port pauses must still make forward progress: the egress side
// of an output-queued switch always drains, so pauses are transient and
// every relayed hop completes. A PFC deadlock would strand held frames
// and stop the hop count short.
func TestPFCCycleDeadlockFree(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitchCfg(eng, SwitchConfig{
		Link:          DirectCable10G(),
		Forwarding:    500 * sim.Nanosecond,
		PFCPauseBytes: 2000,
	})
	hops := 0
	const wantHops = 600
	ha := &hopper{next: macB, hops: &hops, stop: wantHops}
	hb := &hopper{next: macC, hops: &hops, stop: wantHops}
	hc := &hopper{next: macA, hops: &hops, stop: wantHops}
	ha.tx = sw.AttachPortOn(eng, macA, ha)
	hb.tx = sw.AttachPortOn(eng, macB, hb)
	hc.tx = sw.AttachPortOn(eng, macC, hc)
	eng.Schedule(0, func() {
		// Enough initial load on every leg of the cycle to cross each
		// pause watermark.
		for i := 0; i < 8; i++ {
			ha.tx.Send(mkframe(macB, 1000))
			hb.tx.Send(mkframe(macC, 1000))
			hc.tx.Send(mkframe(macA, 1000))
		}
	})
	eng.Run()
	if hops < wantHops {
		t.Fatalf("cycle stalled at %d/%d hops — PFC deadlock", hops, wantHops)
	}
	paused := uint64(0)
	for _, p := range []*Port{ha.tx, hb.tx, hc.tx} {
		paused += p.Stats().PauseRx
		if held := len(p.held); held != 0 {
			t.Errorf("%d frames stranded behind a pause", held)
		}
	}
	if paused == 0 {
		t.Fatal("no port ever paused — the cycle never stressed PFC")
	}
}

// frameECN reads the ECN codepoint from the IPv4 TOS byte of a frame.
func frameECN(frame []byte) uint8 { return frame[packet.EthHeaderLen+1] & 3 }

// ECN marking: frames enqueued while the egress queue is above the
// threshold are CE-marked in flight (and only those — the mark count
// equals the delivered CE frames); with marking disabled every frame
// arrives Not-ECT.
func TestSwitchECNMarking(t *testing.T) {
	run := func(threshold int) (*Switch, *sink) {
		eng := sim.NewEngine(1)
		sw := NewSwitchCfg(eng, SwitchConfig{
			Link:              DirectCable10G(),
			Forwarding:        500 * sim.Nanosecond,
			ECNThresholdBytes: threshold,
		})
		recv := &sink{eng: eng}
		a := sw.AttachPortOn(eng, macA, &sink{eng: eng})
		b := sw.AttachPortOn(eng, macB, &sink{eng: eng})
		sw.AttachPortOn(eng, macC, recv)
		eng.Schedule(0, func() {
			for i := 0; i < 20; i++ {
				a.Send(mkframe(macC, 1000))
				b.Send(mkframe(macC, 1000))
			}
		})
		eng.Run()
		return sw, recv
	}

	sw, recv := run(3000)
	ce := 0
	for _, f := range recv.frames {
		if frameECN(f) == packet.ECNCE {
			ce++
		}
	}
	if ce == 0 || ce == len(recv.frames) {
		t.Errorf("%d/%d frames CE-marked — want some above and some below the threshold", ce, len(recv.frames))
	}
	marked := sw.PortStats(2).EcnMarked
	if uint64(ce) != marked {
		t.Errorf("delivered %d CE frames, switch counted %d marks", ce, marked)
	}

	sw, recv = run(0)
	for i, f := range recv.frames {
		if frameECN(f) != 0 {
			t.Fatalf("frame %d marked with ECN disabled", i)
		}
	}
	if got := sw.PortStats(2).EcnMarked; got != 0 {
		t.Errorf("ecn_marked=%d with marking disabled", got)
	}
}

// discardTotals sums over every port, as the health scrape reports them,
// the frames that arrived at an ingress port, the out_discards aggregate
// and that aggregate's cause counters.
func discardTotals(sw *Switch) (in, discards, byCause uint64) {
	for i := 0; i < sw.NumPorts(); i++ {
		h, _ := sw.PortHealth(i)()
		in += h["in_frames"]
		discards += h["out_discards"]
		byCause += h["out_discards_overflow"] + h["out_discards_no_route"] + h["out_discards_wire"]
	}
	return in, discards, byCause
}

// Conservation under drops: every frame that arrives at an ingress port
// is either delivered to an endpoint or counted in exactly one
// discard-cause bucket — overflow, no route, or loss on the egress wire.
func TestSwitchConservation(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitchCfg(eng, SwitchConfig{
		Link:        DirectCable10G(),
		Forwarding:  500 * sim.Nanosecond,
		BufferBytes: 8000,
	})
	recv := &sink{eng: eng}
	a := sw.AttachPortOn(eng, macA, &sink{eng: eng})
	b := sw.AttachPortOn(eng, macB, &sink{eng: eng})
	sw.AttachPortOn(eng, macC, recv)
	sw.SetEgressFaults(2, DropFrame(3))
	unknown := packet.MAC{9, 9, 9, 9, 9, 9}
	eng.Schedule(0, func() {
		for i := 0; i < 40; i++ {
			a.Send(mkframe(macC, 1200))
			b.Send(mkframe(macC, 1200))
		}
		a.Send(mkframe(unknown, 100))
	})
	eng.Run()

	in, discards, byCause := discardTotals(sw)
	if delivered := uint64(len(recv.frames)); in != delivered+discards {
		t.Errorf("conservation broken: in=%d delivered=%d discards=%d", in, delivered, discards)
	}
	if discards != byCause {
		t.Errorf("discard causes sum to %d, total %d", byCause, discards)
	}
	if sw.PortStats(0).DiscardNoRoute != 1 {
		t.Errorf("no-route discards = %d, want 1", sw.PortStats(0).DiscardNoRoute)
	}
	if sw.PortStats(0).DiscardOverflow+sw.PortStats(1).DiscardOverflow == 0 {
		t.Error("the incast never overflowed the pool")
	}
	if h, _ := sw.PortHealth(2)(); h["out_discards_wire"] != 1 {
		t.Errorf("wire discards = %d, want 1", h["out_discards_wire"])
	}
	if sw.totalUsed != 0 {
		t.Errorf("%d bytes leaked from the shared pool", sw.totalUsed)
	}
}

// FuzzSwitchArbitration drives random per-port arrival interleavings
// through a PFC-enabled shared-buffer switch and asserts the two
// invariants that must survive any schedule: conservation (every
// ingress frame is delivered or counted in exactly one discard cause)
// and losslessness under capacity (with the pool big enough and clean
// wires, nothing is dropped and everything arrives).
func FuzzSwitchArbitration(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x13, 0x88, 0x7f}, uint8(3), false)
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00}, uint8(2), true)
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70}, uint8(4), false)
	f.Fuzz(func(t *testing.T, plan []byte, nports uint8, constrained bool) {
		n := int(nports%4) + 2
		cfg := SwitchConfig{
			Link:          DirectCable10G(),
			Forwarding:    200 * sim.Nanosecond,
			PFCPauseBytes: 3000,
		}
		if constrained {
			// Tight shared pool: drops happen, conservation must still
			// hold.
			cfg.BufferBytes = 6000
		}
		eng := sim.NewEngine(1)
		sw := NewSwitchCfg(eng, cfg)
		ports := make([]*Port, n)
		sinks := make([]*sink, n)
		for i := 0; i < n; i++ {
			mac := packet.MAC{2, 0, 0, 0, 0, byte(i + 1)}
			sinks[i] = &sink{eng: eng}
			ports[i] = sw.AttachPortOn(eng, mac, sinks[i])
		}
		if constrained {
			// ...and so does loss on an egress wire.
			sw.SetEgressFaults(0, Coin{Rand: eng.Rand(), DropProb: 0.1})
		}
		sent := 0
		eng.Schedule(0, func() {
			at := sim.Time(0)
			for _, b := range plan {
				src := int(b) % n
				dst := (src + 1 + int(b>>4)%(n-1)) % n
				size := 64 + int(b)*7
				fr := mkframe(sw.ports[dst].mac, size)
				p := ports[src]
				// Stagger sends pseudo-randomly from the plan bytes so
				// arrivals interleave in fuzz-chosen orders.
				at = at.Add(sim.Duration(int(b%13)) * 100 * sim.Nanosecond)
				eng.ScheduleAt(at, func() { p.Send(fr) })
				sent++
			}
		})
		eng.Run()

		in, discards, byCause := discardTotals(sw)
		arrived := 0
		for i := 0; i < n; i++ {
			arrived += len(sinks[i].frames)
			if held := len(ports[i].held); held != 0 {
				t.Fatalf("port %d: %d frames stranded behind a pause", i, held)
			}
		}
		if in != uint64(arrived)+discards {
			t.Fatalf("conservation broken: in=%d arrived=%d discards=%d", in, arrived, discards)
		}
		if discards != byCause {
			t.Fatalf("discard causes sum to %d, total %d", byCause, discards)
		}
		if !constrained {
			if discards != 0 {
				t.Fatalf("%d drops with an unbounded pool — must be lossless", discards)
			}
			if arrived != sent {
				t.Fatalf("sent %d frames, %d arrived (unbounded pool)", sent, arrived)
			}
		}
		if sw.totalUsed != 0 {
			t.Fatalf("%d bytes leaked from the shared pool", sw.totalUsed)
		}
	})
}
