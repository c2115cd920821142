package fabric

import (
	"fmt"

	"strom/internal/packet"
	"strom/internal/sim"
)

// SwitchConfig describes an output-queued, shared-buffer switch.
//
// Buffer accounting follows the usual shared-memory switch design: every
// admitted frame occupies pool bytes, attributed to its *ingress* port
// from admission until the last byte leaves the egress wire. A frame that
// would overdraw the pool is discarded.
//
// PFC (802.1Qbb, one traffic class) watches each ingress port's byte
// count: crossing PFCPauseBytes emits one pause frame toward the attached
// NIC; falling back to half of it emits one resume. Pause/resume are
// control frames that bypass the data queues: they arrive after the
// cable propagation delay only.
//
// ECN (RFC 3168 / DCQCN's marking half) CE-marks a frame at enqueue time
// when its egress queue already holds more than ECNThresholdBytes. The
// mark patches the IPv4 TOS byte and header checksum in flight; the ICRC
// covers only the IB portion, so end-to-end integrity is preserved.
type SwitchConfig struct {
	Link       LinkConfig   // per-port bandwidth and cable propagation
	Forwarding sim.Duration // fixed per-frame forwarding latency

	BufferBytes       int // shared pool size; 0 = unbounded (lossless, no PFC needed)
	PFCPauseBytes     int // per-ingress-port pause watermark (resume at half); 0 disables PFC
	ECNThresholdBytes int // egress queue depth that triggers CE marking; 0 disables ECN
}

// SwitchPortStats counts one port's activity. Discards always satisfy
// DiscardOverflow+DiscardNoRoute == Discards, and switch-wide InFrames ==
// egress frames + Discards (conservation — the fuzz target asserts it).
type SwitchPortStats struct {
	InFrames uint64 // frames that arrived at this ingress port
	InBytes  uint64

	Discards        uint64 // aggregate, by cause below
	DiscardOverflow uint64 // shared pool exhausted (counted at ingress)
	DiscardNoRoute  uint64 // unknown destination MAC (ingress)

	PauseTx   uint64 // PFC pause frames emitted toward the attached NIC
	ResumeTx  uint64 // PFC resume frames emitted
	EcnMarked uint64 // frames CE-marked at this egress queue
}

// Switch is a store-and-forward Ethernet switch that routes by
// destination MAC, with a shared buffer pool, PFC and ECN marking. All
// switch state lives on the switch's engine; NIC-side Ports live on
// their NIC's engine and reach the switch over the cable.
type Switch struct {
	eng *sim.Engine
	cfg SwitchConfig

	ports []*swPort
	byMAC map[packet.MAC]*swPort

	totalUsed int // shared pool bytes in use
}

// swPort is one switch port: the egress direction toward its NIC plus
// the ingress-side buffer accounting and egress queue state. It is the
// endpoint of its NIC's uplink direction.
type swPort struct {
	sw  *Switch
	mac packet.MAC
	dir *direction // egress wire toward the NIC
	nic *Port      // NIC-side attachment (pause target)

	// Ingress accounting: bytes in the shared pool attributed to this
	// port, held from admission until egress transmission completes.
	used   int
	paused bool // pause frame outstanding

	// Egress queue (output-queued: one queue per egress port).
	eqBytes  int
	eqFrames int
	// releases holds the frames on the egress wire in transmission order,
	// each to return its bytes to the pool when its last byte has left.
	// Release times are the wire's reservations, so they never decrease
	// (DESIGN.md §1.3), and no frame allocates a release closure.
	releases *sim.Backlog[release]

	stats SwitchPortStats
	// The scrape's reports, reused (see export.ScrapeFunc).
	health      map[string]uint64
	healthGauge map[string]float64
}

// release is one admitted frame's claim on the shared pool: n bytes held
// for ingress port from.
type release struct {
	from *swPort
	n    int
}

// DeliverFrame is the port's ingress: a frame fully arrived from the
// uplink, owned by the switch from here on.
func (sp *swPort) DeliverFrame(frame []byte) { sp.sw.ingress(sp, frame) }

// NewSwitchCfg creates a switch. With only Link and Forwarding set it is
// lossless: unbounded buffer, no PFC, no ECN.
func NewSwitchCfg(eng *sim.Engine, cfg SwitchConfig) *Switch {
	return &Switch{eng: eng, cfg: cfg, byMAC: make(map[packet.MAC]*swPort)}
}

// Dropped reports frames that arrived at the port attached to mac and
// were discarded (every cause; discards are counted at ingress).
func (s *Switch) Dropped(mac packet.MAC) uint64 {
	if p, ok := s.byMAC[mac]; ok {
		return p.stats.Discards
	}
	return 0
}

// NumPorts returns the number of attached ports.
func (s *Switch) NumPorts() int { return len(s.ports) }

// PortStats returns a snapshot of port i's counters.
func (s *Switch) PortStats(i int) SwitchPortStats { return s.ports[i].stats }

// SetEgressFaults installs a fault injector on port i's egress wire
// (switch→NIC direction); nil removes it. The injector is judged on the
// switch's engine.
func (s *Switch) SetEgressFaults(i int, f FaultInjector) { s.ports[i].dir.faults = f }

// Port is the NIC-side attachment point of one switch port. It lives on
// the NIC's engine: Send puts the frame on the uplink, a direction like
// either side of a Link whose delay is propagation + forwarding and whose
// endpoint is the switch port's ingress, and PFC pause frames from the
// switch land here. While paused the port buffers frames (lossless)
// instead of transmitting them.
type Port struct {
	up     *direction // NIC→switch uplink
	paused bool
	held   [][]byte

	stats PortStats
	// The scrape's reports, reused (see export.ScrapeFunc).
	health      map[string]uint64
	healthGauge map[string]float64
}

// PortStats counts NIC-side PFC activity; the uplink's wire counters are
// in Health.
type PortStats struct {
	PauseRx    uint64 // PFC pause frames received
	ResumeRx   uint64 // PFC resume frames received
	FramesHeld uint64 // frames buffered because the port was paused
}

// SetFaults installs a fault injector on the uplink (NIC→switch)
// direction of this port; nil removes it. The injector is judged on the
// NIC's engine. Together with Switch.SetEgressFaults this
// gives a switched topology the same per-direction chaos surface a
// point-to-point Link has.
func (p *Port) SetFaults(f FaultInjector) { p.up.faults = f }

// AttachPortOn connects an endpoint living on nicEng with the given MAC
// and returns its NIC-side Port.
func (s *Switch) AttachPortOn(nicEng *sim.Engine, mac packet.MAC, ep Endpoint) *Port {
	link := s.cfg.Link
	sp := &swPort{
		sw:  s,
		mac: mac,
		dir: newDirection(s.eng, nicEng, link.BandwidthGbps, link.Propagation, ep),
	}
	sp.releases = sim.NewBacklog(s.eng, func(r release) { s.release(r.from, sp, r.n) })
	sp.nic = &Port{up: newDirection(nicEng, s.eng, link.BandwidthGbps, link.Propagation+s.cfg.Forwarding, sp)}
	s.ports = append(s.ports, sp)
	s.byMAC[mac] = sp
	return sp.nic
}

// Send transmits one frame toward the switch and takes it over, like a
// Link's send: the caller must not touch the frame afterwards. Call it
// from the NIC engine's event context.
func (p *Port) Send(frame []byte) {
	if p.paused {
		// Lossless: hold the frame behind the pause rather than dropping
		// it. Held frames are drained in FIFO order on resume.
		p.stats.FramesHeld++
		p.held = append(p.held, frame)
		return
	}
	p.up.send(frame)
}

// setPaused applies a PFC pause or resume from the switch (fires on the
// NIC engine). Resume drains the held frames onto the uplink in FIFO
// order.
func (p *Port) setPaused(paused bool) {
	p.paused = paused
	if paused {
		p.stats.PauseRx++
		return
	}
	p.stats.ResumeRx++
	held := p.held
	p.held = nil
	for _, buf := range held {
		p.up.send(buf)
	}
}

// Health is the NIC-side port scrape (export.ScrapeFunc shape): PFC
// frames received, the current hold state and the uplink's injected
// faults.
func (p *Port) Health() (map[string]uint64, map[string]float64) {
	up := &p.up.stats
	paused := 0.0
	if p.paused {
		paused = 1
	}
	if p.health == nil {
		p.health, p.healthGauge = make(map[string]uint64), make(map[string]float64)
	}
	c, g := p.health, p.healthGauge
	c["pfc_pause_rx"] = p.stats.PauseRx
	c["pfc_resume_rx"] = p.stats.ResumeRx
	c["frames_held"] = p.stats.FramesHeld
	c["out_discards"] = up.Dropped
	c["fcs_err"] = up.Corrupted
	c["dup_frames"] = up.Duplicated
	c["delayed_frames"] = up.Delayed
	g["held_frames"] = float64(len(p.held))
	g["paused"] = paused
	return c, g
}

// ingress runs on the switch engine when a frame fully arrives from a
// port: route, admit against the shared buffer, mark, queue, transmit.
// buf is owned by the switch until it is dropped here or handed to the
// egress wire.
func (s *Switch) ingress(from *swPort, buf []byte) {
	n := len(buf)
	from.stats.InFrames++
	from.stats.InBytes += uint64(n)
	var out *swPort
	if n >= 6 {
		out = s.byMAC[packet.MAC(buf[:6])]
	}
	switch {
	case out == nil:
		from.stats.Discards++
		from.stats.DiscardNoRoute++
		packet.PutBuf(buf)
		return
	case s.cfg.BufferBytes > 0 && s.totalUsed+n > s.cfg.BufferBytes:
		from.stats.Discards++
		from.stats.DiscardOverflow++
		packet.PutBuf(buf)
		return
	}
	// Admitted: account, mark, pause-check, queue onto the egress wire.
	s.totalUsed += n
	from.used += n
	out.eqBytes += n
	out.eqFrames++
	if s.cfg.ECNThresholdBytes > 0 && out.eqBytes > s.cfg.ECNThresholdBytes && packet.MarkCongestion(buf) {
		out.stats.EcnMarked++
	}
	if s.cfg.PFCPauseBytes > 0 && !from.paused && from.used >= s.cfg.PFCPauseBytes {
		// Exactly one pause per crossing of the watermark.
		from.stats.PauseTx++
		s.signal(from, true)
	}
	// The frame leaves the shared buffer when its egress transmission
	// completes; the release time mirrors the reservation dir.send is
	// about to make on the egress wire.
	wireTime := sim.BytesAt(n+packet.EthFramingOverhead, s.cfg.Link.BandwidthGbps)
	txStart := out.dir.wire.NextFree()
	if now := s.eng.Now(); txStart < now {
		txStart = now
	}
	out.releases.PushAt(txStart.Add(wireTime), release{from: from, n: n})
	out.dir.send(buf)
}

// release returns a transmitted frame's bytes to the shared pool and
// emits a PFC resume when usage falls back to half the pause watermark.
func (s *Switch) release(from, out *swPort, n int) {
	s.totalUsed -= n
	from.used -= n
	out.eqBytes -= n
	out.eqFrames--
	if from.paused && from.used <= s.cfg.PFCPauseBytes/2 {
		from.stats.ResumeTx++
		s.signal(from, false)
	}
}

// signal records from's pause state and sends the PFC control frame to
// its NIC, which it reaches after the cable propagation delay.
func (s *Switch) signal(from *swPort, paused bool) {
	from.paused = paused
	nic := from.nic
	s.eng.CrossScheduleAt(nic.up.eng, s.eng.Now().Add(s.cfg.Link.Propagation), func() { nic.setPaused(paused) })
}

// PortHealth returns an export.ScrapeFunc-shaped report for port i on
// the arc-switch error-counter taxonomy (see internal/telemetry/export):
// out_frames/out_bytes from the egress wire, out_discards with its cause
// breakdown, PFC and ECN activity, and queue-depth gauges. Scrape it on
// the switch's engine.
func (s *Switch) PortHealth(i int) func() (map[string]uint64, map[string]float64) {
	return s.ports[i].healthReport
}

func (p *swPort) healthReport() (map[string]uint64, map[string]float64) {
	if p.health == nil {
		p.health, p.healthGauge = make(map[string]uint64), make(map[string]float64)
	}
	st, c, g := &p.stats, p.health, p.healthGauge
	c["in_frames"] = st.InFrames
	c["in_bytes"] = st.InBytes
	c["out_frames"] = p.dir.stats.Frames
	c["out_bytes"] = p.dir.stats.Bytes
	// out_discards folds in egress-wire drops (chaos injectors on
	// SetEgressFaults) so the out-discards alert rule sees injected loss on
	// switched paths the way it does on point-to-point links; the cause
	// counters still sum to the aggregate.
	c["out_discards"] = st.Discards + p.dir.stats.Dropped
	c["out_discards_overflow"] = st.DiscardOverflow
	c["out_discards_no_route"] = st.DiscardNoRoute
	c["out_discards_wire"] = p.dir.stats.Dropped
	c["fcs_err"] = p.dir.stats.Corrupted
	c["pfc_pause_tx"] = st.PauseTx
	c["pfc_resume_tx"] = st.ResumeTx
	c["ecn_marked"] = st.EcnMarked
	g["egress_queue_bytes"] = float64(p.eqBytes)
	g["egress_queue_frames"] = float64(p.eqFrames)
	g["ingress_used_bytes"] = float64(p.used)
	g["utilisation"] = p.dir.wire.Utilisation()
	return c, g
}

// String describes the switch.
func (s *Switch) String() string {
	return fmt.Sprintf("switch(%d ports, %.0f Gbit/s)", len(s.ports), s.cfg.Link.BandwidthGbps)
}
