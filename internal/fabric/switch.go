package fabric

import (
	"fmt"

	"strom/internal/packet"
	"strom/internal/sim"
)

// NumPriorities is the number of PFC traffic classes the switch tracks
// (the 3-bit 802.1p space).
const NumPriorities = 8

// SwitchConfig describes an output-queued, shared-buffer switch.
//
// Buffer accounting follows the usual shared-memory switch design: every
// admitted frame occupies pool bytes, attributed to its *ingress* port
// (and priority) from admission until the last byte leaves the egress
// wire. Admission is governed by the pool size and, optionally, a
// per-ingress-port dynamic threshold — reserve + alpha*(free pool) — so
// one congested port cannot starve the others.
//
// PFC (802.1Qbb) watches the per-(ingress port, priority) byte count:
// crossing PFCPauseBytes emits one pause frame toward the attached NIC;
// falling back to PFCResumeBytes emits one resume. Pause/resume are
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

	BufferBytes      int     // shared pool size; 0 = unbounded (lossless, no PFC needed)
	PortReserveBytes int     // per-ingress-port static reserve under the dynamic threshold
	DynamicAlpha     float64 // dynamic threshold factor; 0 disables the per-port threshold

	PFCPauseBytes  int // per-(port,priority) pause watermark; 0 disables PFC
	PFCResumeBytes int // resume watermark; 0 defaults to PFCPauseBytes/2

	ECNThresholdBytes int // egress queue depth that triggers CE marking; 0 disables ECN

	// Classify maps a frame to its PFC priority (< NumPriorities).
	// nil classifies everything as priority 0.
	Classify func(frame []byte) uint8
}

// SwitchPortStats counts one port's activity. Discards always satisfy
// DiscardOverflow+DiscardThreshold+DiscardNoRoute == Discards, and
// switch-wide InFrames == egress frames + Discards (conservation — the
// fuzz target asserts it).
type SwitchPortStats struct {
	InFrames uint64 // frames that arrived at this ingress port
	InBytes  uint64

	Discards         uint64 // aggregate, by cause below
	DiscardOverflow  uint64 // shared pool exhausted (counted at ingress)
	DiscardThreshold uint64 // per-port dynamic threshold exceeded (ingress)
	DiscardNoRoute   uint64 // unknown destination MAC (ingress)

	PauseTx   uint64 // PFC pause frames emitted toward the attached NIC
	ResumeTx  uint64 // PFC resume frames emitted
	EcnMarked uint64 // frames CE-marked at this egress queue
}

// Switch is a store-and-forward Ethernet switch that routes by
// destination MAC, with a shared buffer pool, per-priority PFC and ECN
// marking. All switch state lives on one engine (its own shard in a
// sharded topology); NIC-side Ports live on their NIC's engine and talk
// to the switch through cross-shard events bounded by the cable
// propagation delay.
type Switch struct {
	eng *sim.Engine
	cfg SwitchConfig

	ports []*swPort
	byMAC map[packet.MAC]*swPort

	totalUsed int // shared pool bytes in use
}

// swPort is one switch port: the egress direction toward its NIC plus
// the ingress-side buffer accounting and egress queue state.
type swPort struct {
	sw  *Switch
	idx int
	mac packet.MAC
	dir *direction // egress wire toward the NIC
	nic *Port      // NIC-side attachment (pause target)

	// Ingress accounting: bytes in the shared pool attributed to this
	// port, held from admission until egress transmission completes.
	used     int
	usedPrio [NumPriorities]int
	paused   [NumPriorities]bool // pause frame outstanding for this priority

	// Egress queue (output-queued: one queue per egress port).
	eqBytes  int
	eqFrames int

	stats SwitchPortStats
}

// NewSwitchCfg creates a switch. With only Link and Forwarding set it is
// lossless: unbounded buffer, no PFC, no ECN.
func NewSwitchCfg(eng *sim.Engine, cfg SwitchConfig) *Switch {
	if cfg.PFCPauseBytes > 0 && cfg.PFCResumeBytes == 0 {
		cfg.PFCResumeBytes = cfg.PFCPauseBytes / 2
	}
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

// PortMAC returns the MAC attached to port i.
func (s *Switch) PortMAC(i int) packet.MAC { return s.ports[i].mac }

// PortStats returns a snapshot of port i's counters. Read it from the
// switch engine's context in sharded topologies.
func (s *Switch) PortStats(i int) SwitchPortStats { return s.ports[i].stats }

// SetEgressFaults installs a fault injector on port i's egress wire
// (switch→NIC direction); nil removes it. The injector is judged on the
// switch's engine, so in a sharded topology it must draw randomness
// from that engine's RNG only.
func (s *Switch) SetEgressFaults(i int, f FaultInjector) { s.ports[i].dir.faults = f }

// BufferedBytes reports the shared pool bytes currently in use.
func (s *Switch) BufferedBytes() int { return s.totalUsed }

// classify maps a frame to its PFC priority.
func (s *Switch) classify(frame []byte) uint8 {
	if s.cfg.Classify == nil {
		return 0
	}
	p := s.cfg.Classify(frame)
	if p >= NumPriorities {
		p = NumPriorities - 1
	}
	return p
}

// Port is the NIC-side attachment point of one switch port. It lives on
// the NIC's engine: Send serializes the frame onto the uplink wire and
// hands it to the switch after propagation + forwarding delay, and PFC
// pause frames from the switch land here. While a priority is paused the
// port buffers frames (lossless) instead of transmitting them.
type Port struct {
	sw  *Switch
	p   *swPort
	eng *sim.Engine // NIC engine

	uplink *sim.Serializer
	paused [NumPriorities]bool
	held   [NumPriorities][][]byte
	faults FaultInjector

	stats PortStats
}

// PortStats counts NIC-side port activity.
type PortStats struct {
	PauseRx    uint64 // PFC pause frames received
	ResumeRx   uint64 // PFC resume frames received
	FramesHeld uint64 // frames buffered because their priority was paused
	Dropped    uint64 // frames discarded by the uplink fault injector
	Corrupted  uint64 // frames bit-flipped by the injector
	Duplicated uint64 // extra copies delivered by the injector
	Delayed    uint64 // frames held back by the injector (reordering)
}

// SetFaults installs a fault injector on the uplink (NIC→switch)
// direction of this port; nil removes it. The injector is judged on the
// NIC's engine — in a sharded topology it must draw randomness from
// that engine's RNG only. Together with Switch.SetEgressFaults this
// gives a switched topology the same per-direction chaos surface a
// point-to-point Link has.
func (p *Port) SetFaults(f FaultInjector) { p.faults = f }

// AttachPort connects an endpoint with the given MAC on the switch's own
// engine and returns the transmit function the endpoint uses (classic
// single-engine form; see AttachPortOn for sharded topologies).
func (s *Switch) AttachPort(mac packet.MAC, ep Endpoint) func(frame []byte) {
	return s.AttachPortOn(s.eng, mac, ep).Send
}

// AttachPortOn connects an endpoint living on nicEng with the given MAC
// and returns its NIC-side Port. In a sharded topology nicEng is the
// machine's shard and the switch runs on its own shard; the cable
// propagation delay is the cross-shard lookahead in both directions.
func (s *Switch) AttachPortOn(nicEng *sim.Engine, mac packet.MAC, ep Endpoint) *Port {
	sp := &swPort{
		sw:  s,
		idx: len(s.ports),
		mac: mac,
		dir: newDirection(s.eng, nicEng, s.cfg.Link.BandwidthGbps, s.cfg.Link.Propagation, ep),
	}
	sp.nic = &Port{sw: s, p: sp, eng: nicEng, uplink: sim.NewSerializer(nicEng)}
	s.ports = append(s.ports, sp)
	s.byMAC[mac] = sp
	return sp.nic
}

// Send transmits one frame toward the switch. The caller may retain and
// recycle its buffer as soon as Send returns. Call it from the NIC
// engine's event context.
func (p *Port) Send(frame []byte) {
	prio := p.sw.classify(frame)
	if p.paused[prio] {
		// Lossless: buffer behind the pause rather than dropping. The
		// held copy is drained in FIFO order on resume.
		p.stats.FramesHeld++
		p.held[prio] = append(p.held[prio], packet.CloneFrame(frame))
		return
	}
	p.transmit(prio, packet.CloneFrame(frame))
}

// transmit serializes an owned frame copy onto the uplink and schedules
// its arrival at the switch. Reservation end times are monotone in call
// order, so undelayed frames of one port arrive at the switch in FIFO
// order. The fault injector (if any) is judged after the wire
// reservation, mirroring direction.send: a dropped frame still consumed
// its wire time.
func (p *Port) transmit(prio uint8, buf []byte) {
	end := p.uplink.Reserve(sim.BytesAt(len(buf)+packet.EthFramingOverhead, p.sw.cfg.Link.BandwidthGbps))
	at := end.Add(p.sw.cfg.Link.Propagation + p.sw.cfg.Forwarding)
	sp := p.p
	var v Verdict
	if p.faults != nil {
		v = p.faults.Judge(p.eng.Now(), len(buf))
	}
	if v.Drop {
		p.stats.Dropped++
		packet.PutBuf(buf)
		return
	}
	if v.Corrupt {
		p.stats.Corrupted++
		pos := p.eng.Rand().Intn(len(buf))
		buf[pos] ^= 1 << p.eng.Rand().Intn(8)
	}
	if v.Delay > 0 {
		p.stats.Delayed++
		at = at.Add(v.Delay)
	}
	if v.Duplicate {
		p.stats.Duplicated++
		dup := packet.CloneFrame(buf)
		p.eng.CrossScheduleAt(p.sw.eng, at.Add(v.DupDelay), func() { p.sw.ingress(sp, prio, dup) })
	}
	p.eng.CrossScheduleAt(p.sw.eng, at, func() { p.sw.ingress(sp, prio, buf) })
}

// setPaused applies a PFC pause or resume from the switch (fires on the
// NIC engine). Resume drains the held frames back through the uplink
// serializer, preserving per-priority FIFO order.
func (p *Port) setPaused(prio uint8, paused bool) {
	if paused {
		p.stats.PauseRx++
		p.paused[prio] = true
		return
	}
	p.stats.ResumeRx++
	p.paused[prio] = false
	held := p.held[prio]
	p.held[prio] = nil
	for _, buf := range held {
		p.transmit(prio, buf)
	}
}

// Paused reports whether the given priority is currently paused (NIC
// engine state).
func (p *Port) Paused(prio uint8) bool { return p.paused[prio] }

// HeldFrames reports how many frames are currently buffered behind
// pauses (NIC engine state).
func (p *Port) HeldFrames() int {
	n := 0
	for i := range p.held {
		n += len(p.held[i])
	}
	return n
}

// Stats returns a snapshot of the NIC-side counters.
func (p *Port) Stats() PortStats { return p.stats }

// Health is the NIC-side port scrape (export.ScrapeFunc shape): PFC
// frames received and the current hold state. Register it on the NIC's
// engine in sharded topologies.
func (p *Port) Health() (map[string]uint64, map[string]float64) {
	paused := 0.0
	for i := range p.paused {
		if p.paused[i] {
			paused = 1
		}
	}
	return map[string]uint64{
			"pfc_pause_rx":   p.stats.PauseRx,
			"pfc_resume_rx":  p.stats.ResumeRx,
			"frames_held":    p.stats.FramesHeld,
			"out_discards":   p.stats.Dropped,
			"fcs_err":        p.stats.Corrupted,
			"dup_frames":     p.stats.Duplicated,
			"delayed_frames": p.stats.Delayed,
		}, map[string]float64{
			"held_frames": float64(p.HeldFrames()),
			"paused":      paused,
		}
}

// ingress runs on the switch engine when a frame fully arrives from a
// port: route, admit against the shared buffer, mark, queue, transmit.
// buf is owned by the switch (recycled here; the egress wire clones).
func (s *Switch) ingress(from *swPort, prio uint8, buf []byte) {
	from.stats.InFrames++
	from.stats.InBytes += uint64(len(buf))
	if len(buf) < 6 {
		from.stats.Discards++
		from.stats.DiscardNoRoute++
		packet.PutBuf(buf)
		return
	}
	var dst packet.MAC
	copy(dst[:], buf[0:6])
	out, ok := s.byMAC[dst]
	if !ok {
		from.stats.Discards++
		from.stats.DiscardNoRoute++
		packet.PutBuf(buf)
		return
	}
	n := len(buf)
	if s.cfg.BufferBytes > 0 {
		if s.totalUsed+n > s.cfg.BufferBytes {
			from.stats.Discards++
			from.stats.DiscardOverflow++
			packet.PutBuf(buf)
			return
		}
		if s.cfg.DynamicAlpha > 0 {
			limit := s.cfg.PortReserveBytes + int(s.cfg.DynamicAlpha*float64(s.cfg.BufferBytes-s.totalUsed))
			if from.used+n > limit {
				from.stats.Discards++
				from.stats.DiscardThreshold++
				packet.PutBuf(buf)
				return
			}
		}
	}
	// Admitted: account, mark, pause-check, queue onto the egress wire.
	s.totalUsed += n
	from.used += n
	from.usedPrio[prio] += n
	out.eqBytes += n
	out.eqFrames++
	if s.cfg.ECNThresholdBytes > 0 && out.eqBytes > s.cfg.ECNThresholdBytes && packet.MarkCongestion(buf) {
		out.stats.EcnMarked++
	}
	s.checkPause(from, prio)
	// The frame leaves the shared buffer when its egress transmission
	// completes; the release time mirrors the reservation dir.send is
	// about to make on the egress wire.
	wireTime := sim.BytesAt(n+packet.EthFramingOverhead, s.cfg.Link.BandwidthGbps)
	txStart := out.dir.wire.NextFree()
	if now := s.eng.Now(); txStart < now {
		txStart = now
	}
	s.eng.ScheduleAt(txStart.Add(wireTime), func() { s.release(from, out, prio, n) })
	out.dir.send(buf)
	packet.PutBuf(buf)
}

// checkPause emits a PFC pause toward from's NIC when its per-priority
// usage crosses the watermark — exactly once per crossing.
func (s *Switch) checkPause(from *swPort, prio uint8) {
	if s.cfg.PFCPauseBytes <= 0 || from.paused[prio] || from.usedPrio[prio] < s.cfg.PFCPauseBytes {
		return
	}
	from.paused[prio] = true
	from.stats.PauseTx++
	nic, pr := from.nic, prio
	s.eng.CrossScheduleAt(nic.eng, s.eng.Now().Add(s.cfg.Link.Propagation), func() { nic.setPaused(pr, true) })
}

// release returns a transmitted frame's bytes to the shared pool and
// emits a PFC resume when usage falls back to the low watermark.
func (s *Switch) release(from, out *swPort, prio uint8, n int) {
	s.totalUsed -= n
	from.used -= n
	from.usedPrio[prio] -= n
	out.eqBytes -= n
	out.eqFrames--
	if s.cfg.PFCPauseBytes <= 0 || !from.paused[prio] || from.usedPrio[prio] > s.cfg.PFCResumeBytes {
		return
	}
	from.paused[prio] = false
	from.stats.ResumeTx++
	nic, pr := from.nic, prio
	s.eng.CrossScheduleAt(nic.eng, s.eng.Now().Add(s.cfg.Link.Propagation), func() { nic.setPaused(pr, false) })
}

// PortHealth returns an export.ScrapeFunc-shaped report for port i on
// the arc-switch error-counter taxonomy (see internal/telemetry/export):
// out_frames/out_bytes from the egress wire, out_discards with its cause
// breakdown, PFC and ECN activity, and queue-depth gauges. Scrape it on
// the switch's engine.
func (s *Switch) PortHealth(i int) func() (map[string]uint64, map[string]float64) {
	p := s.ports[i]
	return func() (map[string]uint64, map[string]float64) {
		st := &p.stats
		// out_discards folds in egress-wire drops (chaos injectors on
		// SetEgressFaults) so the out-discards alert rule sees injected
		// loss on switched paths the way it does on point-to-point links;
		// the cause counters still sum to the aggregate.
		return map[string]uint64{
				"in_frames":              st.InFrames,
				"in_bytes":               st.InBytes,
				"out_frames":             p.dir.stats.Frames,
				"out_bytes":              p.dir.stats.Bytes,
				"out_discards":           st.Discards + p.dir.stats.Dropped,
				"out_discards_overflow":  st.DiscardOverflow,
				"out_discards_threshold": st.DiscardThreshold,
				"out_discards_no_route":  st.DiscardNoRoute,
				"out_discards_wire":      p.dir.stats.Dropped,
				"fcs_err":                p.dir.stats.Corrupted,
				"pfc_pause_tx":           st.PauseTx,
				"pfc_resume_tx":          st.ResumeTx,
				"ecn_marked":             st.EcnMarked,
			}, map[string]float64{
				"egress_queue_bytes":  float64(p.eqBytes),
				"egress_queue_frames": float64(p.eqFrames),
				"ingress_used_bytes":  float64(p.used),
				"utilisation":         p.dir.wire.Utilisation(),
			}
	}
}

// String describes the switch.
func (s *Switch) String() string {
	return fmt.Sprintf("switch(%d ports, %.0f Gbit/s)", len(s.ports), s.cfg.Link.BandwidthGbps)
}
