// Package fabric models the Ethernet network between StRoM NICs: links
// with serialization and propagation delay, optional loss/corruption
// injection for exercising the retransmission path, and an output-queued
// shared-buffer switch with PFC and ECN (switch.go) for topologies
// beyond the paper's two directly-connected NICs.
package fabric

import (
	"fmt"

	"strom/internal/packet"
	"strom/internal/sim"
	"strom/internal/telemetry"
)

// Endpoint receives frames from the fabric.
type Endpoint interface {
	// DeliverFrame hands an encoded Ethernet frame to the endpoint at the
	// simulated time it fully arrives. Ownership of the frame transfers
	// to the endpoint: the fabric never touches it again, so the endpoint
	// may recycle it through packet.PutBuf once fully consumed.
	DeliverFrame(frame []byte)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(frame []byte)

// DeliverFrame calls f.
func (f EndpointFunc) DeliverFrame(frame []byte) { f(frame) }

// DropCause classifies why a frame was discarded on the wire, so link
// telemetry can break out_discards down the way switch error counters
// do instead of reporting one aggregate.
type DropCause uint8

const (
	// DropChaos is injected loss (the chaos Gilbert–Elliott model, or
	// any FaultInjector that does not set a more specific cause).
	DropChaos DropCause = iota
	// DropFlap is a frame sent into a link-down (flap) window.
	DropFlap
	// DropOffline is a frame sent while the direction was
	// administratively taken offline (SetOfflineAtoB/BtoA).
	DropOffline
)

// String names the cause with the label used in telemetry exports.
func (c DropCause) String() string {
	switch c {
	case DropChaos:
		return "chaos"
	case DropFlap:
		return "flap"
	case DropOffline:
		return "offline"
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Verdict is a FaultInjector's decision for one frame.
type Verdict struct {
	Drop      bool         // discard the frame entirely
	Cause     DropCause    // why, when Drop is set (zero value: chaos)
	Corrupt   bool         // flip one random bit of the delivered copy
	Duplicate bool         // deliver a second, independent copy
	Delay     sim.Duration // extra delivery delay (causes reordering)
	DupDelay  sim.Duration // extra delay of the duplicate copy, on top of Delay
}

// FaultInjector decides the fate of every frame entering a link
// direction. It is consulted once per frame, at the simulated time the
// frame is handed to the wire, and must be deterministic (draw
// randomness from the owning engine's RNG only). internal/chaos provides
// the full bursty-loss/reorder/duplication/flap implementation;
// FrameScript is the deterministic one ("drop exactly frame k") and Coin
// the memoryless one (script.go).
type FaultInjector interface {
	Judge(now sim.Time, frameLen int) Verdict
}

// Stats counts per-direction link activity. Dropped is the aggregate;
// the DroppedX fields break it down by cause and always sum to it.
type Stats struct {
	Frames         uint64
	Bytes          uint64 // wire bytes including framing overhead
	Dropped        uint64
	DroppedChaos   uint64 // injected loss (chaos model / fault injectors)
	DroppedFlap    uint64 // frames sent into a link-down window
	DroppedOffline uint64 // direction administratively offline
	Corrupted      uint64
	Duplicated     uint64 // extra copies delivered by a FaultInjector
	Delayed        uint64 // frames held back by a FaultInjector (reordering)
}

// countDrop records one discard with its cause.
func (st *Stats) countDrop(c DropCause) {
	st.Dropped++
	switch c {
	case DropFlap:
		st.DroppedFlap++
	case DropOffline:
		st.DroppedOffline++
	default:
		st.DroppedChaos++
	}
}

// direction is one side of a full-duplex link. eng is the sending
// shard's engine (serialization, RNG draws, fault judgement happen
// there); dstEng is the receiving shard's engine, where the delivery
// fires. They are the same engine unless the link spans two shards of
// a sim.ShardGroup (NewLinkOn), in which case the propagation delay is
// the lookahead that makes conservative parallel execution sound.
type direction struct {
	eng     *sim.Engine
	dstEng  *sim.Engine
	wire    *sim.Serializer
	gbps    float64
	prop    sim.Duration
	faults  FaultInjector
	offline bool // administratively down: every frame is discarded
	dst     Endpoint
	stats   Stats

	// Same-engine deliveries push here and schedule drainFn (bound
	// once), so the per-frame closure is never allocated; see sim.FIFO.
	pend    sim.FIFO[[]byte]
	drainFn func()

	// Structured tracing (nil when telemetry is disabled).
	tb  *telemetry.TraceBuffer
	pid uint32
	tid uint32
}

// newDirection builds one side of a link or switch port.
func newDirection(eng, dstEng *sim.Engine, gbps float64, prop sim.Duration, dst Endpoint) *direction {
	d := &direction{
		eng: eng, dstEng: dstEng, wire: sim.NewSerializer(eng),
		gbps: gbps, prop: prop, dst: dst,
	}
	d.drainFn = d.drain
	return d
}

// drain delivers the oldest undelayed in-flight frame. Their delivery
// times are non-decreasing in push order (wire reservations plus the
// constant propagation delay), so the engine fires drains in push order.
func (d *direction) drain() { d.dst.DeliverFrame(d.pend.Pop()) }

func (d *direction) send(frame []byte) {
	d.stats.Frames++
	// An offline direction discards before the wire: no serializer
	// reservation and no RNG draw, so toggling it on and off around a
	// window leaves every other random decision in the run untouched.
	if d.offline {
		d.stats.countDrop(DropOffline)
		if d.tb != nil {
			d.tb.Instant(d.pid, d.tid, "wire", "drop:offline", fmt.Sprintf("%d bytes", len(frame)))
		}
		return
	}
	wireBytes := len(frame) + packet.EthFramingOverhead
	d.stats.Bytes += uint64(wireBytes)
	end := d.wire.Reserve(sim.BytesAt(wireBytes, d.gbps))
	var v Verdict
	if d.faults != nil {
		v = d.faults.Judge(d.eng.Now(), len(frame))
	}
	if v.Drop {
		d.stats.countDrop(v.Cause)
		if d.tb != nil {
			d.tb.Instant(d.pid, d.tid, "wire", "drop:"+v.Cause.String(), fmt.Sprintf("%d bytes", len(frame)))
		}
		return
	}
	// Senders may retain (and retransmit) their frame buffer, so each
	// hop travels in its own pooled copy, owned by the receiver.
	buf := packet.CloneFrame(frame)
	if v.Corrupt {
		d.stats.Corrupted++
		pos := d.eng.Rand().Intn(len(buf))
		buf[pos] ^= 1 << d.eng.Rand().Intn(8)
		if d.tb != nil {
			d.tb.Instant(d.pid, d.tid, "wire", "corrupt", fmt.Sprintf("byte %d", pos))
		}
	}
	deliverAt := end.Add(d.prop)
	if v.Delay > 0 {
		d.stats.Delayed++
		deliverAt = deliverAt.Add(v.Delay)
		if d.tb != nil {
			d.tb.Instant(d.pid, d.tid, "wire", "delay", fmt.Sprintf("%v", v.Delay))
		}
	}
	if d.tb != nil {
		now := d.eng.Now()
		d.tb.Complete(d.pid, d.tid, "wire", "frame", now, deliverAt.Sub(now), fmt.Sprintf("%d wire bytes", wireBytes))
	}
	if v.Delay == 0 && d.dstEng == d.eng {
		// Hot path: in-order same-engine delivery through the drain
		// queue — no per-frame closure.
		d.pend.Push(buf)
		d.eng.ScheduleAt(deliverAt, d.drainFn)
	} else {
		// Delayed frames break the FIFO delivery order, and cross-shard
		// frames must fire on the destination's engine (CrossScheduleAt
		// parks them in the shard outbox until the window barrier).
		d.eng.CrossScheduleAt(d.dstEng, deliverAt, func() { d.dst.DeliverFrame(buf) })
	}
	if v.Duplicate {
		// The duplicate is an independent copy (cloned now: the sender
		// may recycle its buffer as soon as send returns).
		d.stats.Duplicated++
		dup := packet.CloneFrame(frame)
		if d.tb != nil {
			d.tb.Instant(d.pid, d.tid, "wire", "duplicate", fmt.Sprintf("%d bytes", len(frame)))
		}
		d.eng.CrossScheduleAt(d.dstEng, deliverAt.Add(v.DupDelay), func() { d.dst.DeliverFrame(dup) })
	}
}

// Link is a full-duplex point-to-point Ethernet cable. The paper's
// testbed directly connects two StRoM NICs "to remove the potential noise
// introduced by a switch" (§6.1).
type Link struct {
	a, b *direction
}

// LinkConfig describes a cable.
type LinkConfig struct {
	BandwidthGbps float64
	Propagation   sim.Duration
}

// DirectCable10G returns the 10 G direct-attach configuration.
func DirectCable10G() LinkConfig {
	return LinkConfig{BandwidthGbps: 10, Propagation: 150 * sim.Nanosecond}
}

// DirectCable100G returns the 100 G direct-attach configuration.
func DirectCable100G() LinkConfig {
	return LinkConfig{BandwidthGbps: 100, Propagation: 150 * sim.Nanosecond}
}

// NewLink wires endpoints a and b together on one engine.
func NewLink(eng *sim.Engine, cfg LinkConfig, a, b Endpoint) *Link {
	return NewLinkOn(eng, eng, cfg, a, b)
}

// NewLinkOn wires endpoint a (living on engA) to endpoint b (living on
// engB). When engA and engB are shards of one sim.ShardGroup this is
// the cross-shard seam of the simulation: each direction serializes and
// judges faults on its sending shard and delivers on the receiving
// shard, and the propagation delay — the minimum time any frame spends
// crossing — is the conservative lookahead bound that lets both shards
// advance in parallel. With engA == engB it degenerates to the classic
// single-engine link, byte-identical to the historical behaviour.
func NewLinkOn(engA, engB *sim.Engine, cfg LinkConfig, a, b Endpoint) *Link {
	return &Link{
		a: newDirection(engA, engB, cfg.BandwidthGbps, cfg.Propagation, b),
		b: newDirection(engB, engA, cfg.BandwidthGbps, cfg.Propagation, a),
	}
}

// Trace track (tid) layout inside the link's process (pid).
const (
	traceTidAtoB = 1
	traceTidBtoA = 2
)

// AttachTelemetry wires the link into the observability layer under pid:
// the registry mirrors per-direction frame/byte/drop/corrupt counters
// and wire utilisation via a collect callback; the trace buffer receives
// one complete span per frame in flight (serialization + propagation)
// on a per-direction track. Either argument may be nil.
func (l *Link) AttachTelemetry(reg *telemetry.Registry, tb *telemetry.TraceBuffer, pid uint32) {
	if reg != nil {
		collect := func(name string, d *direction) {
			lbl := telemetry.L("dir", name)
			reg.Counter("link_frames", lbl).Set(d.stats.Frames)
			reg.Counter("link_bytes", lbl).Set(d.stats.Bytes)
			reg.Counter("link_dropped", lbl).Set(d.stats.Dropped)
			reg.Counter("link_dropped_by_cause", lbl, telemetry.L("cause", "chaos")).Set(d.stats.DroppedChaos)
			reg.Counter("link_dropped_by_cause", lbl, telemetry.L("cause", "flap")).Set(d.stats.DroppedFlap)
			reg.Counter("link_dropped_by_cause", lbl, telemetry.L("cause", "offline")).Set(d.stats.DroppedOffline)
			reg.Counter("link_corrupted", lbl).Set(d.stats.Corrupted)
			reg.Counter("link_duplicated", lbl).Set(d.stats.Duplicated)
			reg.Counter("link_delayed", lbl).Set(d.stats.Delayed)
			reg.Gauge("link_utilisation", lbl).Set(d.wire.Utilisation())
		}
		reg.OnCollect(func() {
			collect("a-to-b", l.a)
			collect("b-to-a", l.b)
		})
	}
	if tb != nil {
		tb.NameProcess(pid, "link")
		tb.NameThread(pid, traceTidAtoB, "a-to-b")
		tb.NameThread(pid, traceTidBtoA, "b-to-a")
	}
	// Each direction traces into the segment of its sending engine, so a
	// sharded link never writes one buffer from two goroutines. ForEngine
	// is the identity on a single-engine link.
	l.a.tb, l.a.pid, l.a.tid = tb.ForEngine(l.a.eng), pid, traceTidAtoB
	l.b.tb, l.b.pid, l.b.tid = tb.ForEngine(l.b.eng), pid, traceTidBtoA
}

// Utilisations returns wire utilisation for both directions since time
// zero (for sampling probes).
func (l *Link) Utilisations() (aToB, bToA float64) {
	return l.a.wire.Utilisation(), l.b.wire.Utilisation()
}

// SendFromA transmits a frame from endpoint a toward endpoint b.
func (l *Link) SendFromA(frame []byte) { l.a.send(frame) }

// SendFromB transmits a frame from endpoint b toward endpoint a.
func (l *Link) SendFromB(frame []byte) { l.b.send(frame) }

// SetFaultsAtoB installs the a→b direction's fault injector (nil
// removes it).
func (l *Link) SetFaultsAtoB(f FaultInjector) { l.a.faults = f }

// SetFaultsBtoA installs a fault injector on the b→a direction.
func (l *Link) SetFaultsBtoA(f FaultInjector) { l.b.faults = f }

// SetOfflineAtoB administratively takes the a→b direction down (or back
// up): while offline every frame is discarded before the wire, with no
// RNG draw, and counted as an offline out_discard. On a sharded link
// call it from engine A's event context (the sending shard owns the
// direction).
func (l *Link) SetOfflineAtoB(down bool) { l.a.offline = down }

// SetOfflineBtoA administratively takes the b→a direction down. On a
// sharded link call it from engine B's event context.
func (l *Link) SetOfflineBtoA(down bool) { l.b.offline = down }

// StatsAtoB returns counters for the a→b direction.
func (l *Link) StatsAtoB() Stats { return l.a.stats }

// StatsBtoA returns counters for the b→a direction.
func (l *Link) StatsBtoA() Stats { return l.b.stats }

// health builds one direction's scrapeable report using the switch-style
// error-counter names documented in internal/telemetry/export: the
// aggregate out_discards plus one counter per drop cause, corruption as
// fcs_err (the receiver discards corrupted frames on ICRC), and wire
// utilisation as a gauge.
func (d *direction) health() (map[string]uint64, map[string]float64) {
	st := &d.stats
	return map[string]uint64{
			"out_frames":           st.Frames,
			"out_bytes":            st.Bytes,
			"out_discards":         st.Dropped,
			"out_discards_chaos":   st.DroppedChaos,
			"out_discards_flap":    st.DroppedFlap,
			"out_discards_offline": st.DroppedOffline,
			"fcs_err":              st.Corrupted,
			"dup_frames":           st.Duplicated,
			"delayed_frames":       st.Delayed,
		}, map[string]float64{
			"utilisation": d.wire.Utilisation(),
		}
}

// HealthAtoB returns the a→b direction's health report. On a sharded
// link the a→b state is owned by engine A: scrape it from there (it is
// a valid export.ScrapeFunc for a source registered on engine A).
func (l *Link) HealthAtoB() (map[string]uint64, map[string]float64) { return l.a.health() }

// HealthBtoA returns the b→a direction's health report (engine B's
// state on a sharded link).
func (l *Link) HealthBtoA() (map[string]uint64, map[string]float64) { return l.b.health() }

// UtilisationAtoB reports a→b wire utilisation since time zero.
func (l *Link) UtilisationAtoB() float64 { return l.a.wire.Utilisation() }

// UtilisationBtoA reports b→a wire utilisation since time zero. On a
// sharded link this reads shard B's wire — only probe it from engine B.
func (l *Link) UtilisationBtoA() float64 { return l.b.wire.Utilisation() }

// The store-and-forward Switch (shared-buffer accounting, PFC, ECN)
// lives in switch.go.
