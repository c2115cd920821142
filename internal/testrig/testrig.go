// Package testrig assembles the two-machine testbed of §6.1 — two StRoM
// NICs connected by a direct cable — for use by kernel tests, the
// experiment harness and the examples.
package testrig

import (
	"fmt"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
)

// Pair is the two-machine testbed. QP 1 on A is connected to QP 2 on B,
// and each machine has one registered buffer.
//
// Machine A's components live on shard 0 and machine B's on shard 1 of a
// two-shard sim.ShardGroup whose lookahead is the cable's propagation
// delay. Workloads drive the A side from Eng and run the pair with Run;
// B-side state may be touched during setup and after Run returns, but
// mid-run only from events on EngB — OnB carries a request there, and
// Reconnect makes the round trip of a queue-pair reconnect.
type Pair struct {
	Eng   *sim.Engine // machine A's shard
	EngB  *sim.Engine // machine B's shard
	Group *sim.ShardGroup
	A, B  *core.NIC
	Link  *fabric.Link
	BufA  *hostmem.Buffer
	BufB  *hostmem.Buffer
}

// QPA and QPB are the pre-created queue pair numbers on A and B.
const (
	QPA uint32 = 1
	QPB uint32 = 2
)

// New builds the testbed: cfg selects the machine profile (10 G or
// 100 G), linkCfg the cable, bufSize the per-machine registered buffer.
// The cable's propagation delay is the conservative lookahead: no frame
// crosses machines faster than that.
func New(seed int64, cfg core.Config, linkCfg fabric.LinkConfig, bufSize int) (*Pair, error) {
	group := sim.NewShardGroup(seed, 2, linkCfg.Propagation)
	engA, engB := group.Shard(0), group.Shard(1)
	idA, _ := core.MachineIdentity(1) // 1 and 2 are in range
	idB, _ := core.MachineIdentity(2)
	a := core.NewNIC(engA, cfg, idA)
	b := core.NewNIC(engB, cfg, idB)
	link := fabric.NewLinkOn(engA, engB, linkCfg, a, b)
	a.SetTransmit(link.SendFromA)
	b.SetTransmit(link.SendFromB)
	if err := a.CreateQP(QPA, idB, QPB); err != nil {
		return nil, fmt.Errorf("testrig: %w", err)
	}
	if err := b.CreateQP(QPB, idA, QPA); err != nil {
		return nil, fmt.Errorf("testrig: %w", err)
	}
	bufA, err := a.AllocBuffer(bufSize)
	if err != nil {
		return nil, fmt.Errorf("testrig: %w", err)
	}
	bufB, err := b.AllocBuffer(bufSize)
	if err != nil {
		return nil, fmt.Errorf("testrig: %w", err)
	}
	return &Pair{Eng: engA, EngB: engB, Group: group, A: a, B: b, Link: link, BufA: bufA, BufB: bufB}, nil
}

// NewSharded is New; workers is ignored. It remains only for
// benchmark/verbs.go until that file calls New.
func NewSharded(seed int64, cfg core.Config, linkCfg fabric.LinkConfig, bufSize, _ int) (*Pair, error) {
	return New(seed, cfg, linkCfg, bufSize)
}

// Run executes the testbed to completion and returns the final simulated
// time.
func (p *Pair) Run() sim.Time { return p.Group.Run() }

// OnB runs fn on machine B one cable propagation delay from now — the
// least any event on A takes to reach B. Call it from machine A's
// context.
func (p *Pair) OnB(fn func()) { p.Eng.CrossSchedule(p.EngB, p.Group.Lookahead(), fn) }

// Trace process (pid) layout of the instrumented testbed.
const (
	PidA    uint32 = 1
	PidB    uint32 = 2
	PidLink uint32 = 3
)

// Telemetry bundles the observability layer of an instrumented testbed.
// A and B are the machines' scopes of Registry: each machine's metrics
// and collectors resolve through its own, so a scope can be scraped
// mid-run on its machine's shard.
type Telemetry struct {
	Registry *telemetry.Registry
	A, B     *telemetry.Registry
	Trace    *telemetry.TraceBuffer
}

// Instrument attaches a fresh metrics registry and trace buffer to both
// NICs and the link: NIC A under pid 1, NIC B under pid 2, the cable
// under pid 3. Call after deploying kernels (each deployment gets a
// trace lane) and before running the workload.
func (p *Pair) Instrument() *Telemetry {
	reg := telemetry.NewRegistry()
	tel := &Telemetry{Registry: reg, A: reg.Scope(), B: reg.Scope(), Trace: telemetry.NewTrace(p.Eng)}
	p.A.AttachTelemetry(tel.A, tel.Trace, PidA, "A")
	// Machine B records into its own trace segment; the link binds its
	// two directions to their sending shards' segments itself.
	p.B.AttachTelemetry(tel.B, tel.Trace.ForEngine(p.EngB), PidB, "B")
	p.Link.AttachTelemetry(tel.A, tel.B, tel.Trace, PidLink)
	return tel
}

// StartProbes installs the periodic sampling probes that record both
// NICs' occupancy signals (kernel in-flight DMA, per-QP outstanding work,
// doorbell backlog) and the link utilisation every interval of simulated
// time: one probe per machine, on that machine's engine, each sampling
// only the signals its side owns (the single-writer-per-handle telemetry
// contract). They never move the end of the run (see telemetry.Probe).
func (p *Pair) StartProbes(tel *Telemetry, every sim.Duration) {
	if tel == nil {
		return
	}
	telemetry.Probe(p.Eng, every, func(sim.Time) {
		p.A.TelemetrySample()
		tel.A.Histogram("link_utilisation_samples", "fraction",
			telemetry.L("dir", "a-to-b")).ObserveInt(int64(p.Link.UtilisationAtoB() * 100))
	})
	telemetry.Probe(p.EngB, every, func(sim.Time) {
		p.B.TelemetrySample()
		tel.B.Histogram("link_utilisation_samples", "fraction",
			telemetry.L("dir", "b-to-a")).ObserveInt(int64(p.Link.UtilisationBtoA() * 100))
	})
}

// RecordJSONL registers the testbed's health surfaces with a JSONL
// recorder: NIC A and the a→b link direction on machine A's engine, NIC
// B and the b→a direction on machine B's (the shard that owns each
// surface scrapes it). With tel each machine's registry scope is scraped
// on its own shard too — one "metrics" event per subsystem per machine
// per interval; pass nil to skip registry export. Call before rec.Start.
func (p *Pair) RecordJSONL(rec *export.Recorder, tel *Telemetry) {
	rec.Source(p.Eng, "A", "port", "nic:A", p.A.Health)
	rec.Source(p.Eng, "fabric", "link", "a-to-b", p.Link.HealthAtoB)
	rec.Source(p.EngB, "B", "port", "nic:B", p.B.Health)
	rec.Source(p.EngB, "fabric", "link", "b-to-a", p.Link.HealthBtoA)
	if tel != nil {
		rec.Registry(p.Eng, "A", tel.A)
		rec.Registry(p.EngB, "B", tel.B)
	}
}

// ApplyChaos wires a chaos plan into the testbed — frame faults on the
// link, DMA stall windows on both machines — and attaches a protocol
// invariant checker to each stack. Each NIC's DMA-issue observer is
// pointed at the peer checker's DMAGuard, so invariant 9 (no DMA outside
// a registered region with the right permission) is asserted on every
// command either NIC issues. Call the checkers' Finish after the run to
// collect violations.
func (p *Pair) ApplyChaos(plan chaos.Plan) (*chaos.Injector, *chaos.Checker, *chaos.Checker) {
	inj := chaos.NewOn(p.Eng, p.EngB, plan)
	inj.Apply(p.Link, p.A.DMA(), p.B.DMA())
	ca := chaos.AttachChecker(p.A.Stack(), "A", p.Eng)
	cb := chaos.AttachChecker(p.B.Stack(), "B", p.EngB)
	p.A.SetDMAObserver(ca.DMAGuard(p.A.MRTable()))
	p.B.SetDMAObserver(cb.DMAGuard(p.B.MRTable()))
	return inj, ca, cb
}

// ExchangeRKeys performs the application-level rkey exchange at setup:
// each side learns the current rkey of the peer's registered buffer, so
// subsequent posts carry real keys instead of the wildcard key 0, on the
// given QPs.
func (p *Pair) ExchangeRKeys(qpa, qpb uint32) error {
	rb := p.B.RegionFor(uint64(p.BufB.Base()))
	ra := p.A.RegionFor(uint64(p.BufA.Base()))
	if ra == nil || rb == nil {
		return fmt.Errorf("testrig: buffers not registered")
	}
	if err := p.A.SetRemoteRKey(qpa, rb.RKey()); err != nil {
		return err
	}
	return p.B.SetRemoteRKey(qpb, ra.RKey())
}

// AddQueuePair connects an extra QP pair (qpa on A ↔ qpb on B) beside the
// default QPA/QPB — e.g. a rogue requester's channel.
func (p *Pair) AddQueuePair(qpa, qpb uint32) error {
	if err := p.A.CreateQP(qpa, p.B.Identity(), qpb); err != nil {
		return err
	}
	return p.B.CreateQP(qpb, p.A.Identity(), qpa)
}

// Peer is machine B's answer to Reconnect, back on machine A.
type Peer struct {
	RKeys []uint32 // the rkeys of the buffers asked about, as B has them now (a restart rotates them)
	Reset bool     // both ends were reset and re-entered RTS
	Err   error    // wraps roce.ErrPeerCrashed while B is down
}

// Reconnect re-establishes qpa on A ↔ qpb on B after a failure, in one
// round trip over the cable and in core.Reconnect's order: B resets its
// end, A resets its own when B's answer arrives, and only then does
// either re-enter RTS — A at once, B one cable delay after its reset.
// With keep, a pair whose two ends are still in RTS is left alone. done
// gets B's answer on A, carrying the rkeys of B's buffers bufs. Call it
// from machine A's context.
func (p *Pair) Reconnect(qpa, qpb uint32, keep bool, done func(Peer), bufs ...*hostmem.Buffer) {
	st, err := p.A.Stack().QPStateOf(qpa)
	if err != nil {
		done(Peer{Err: err})
		return
	}
	keep = keep && st == roce.QPStateRTS
	b, delay := p.B, p.Group.Lookahead()
	p.OnB(func() {
		v := Peer{RKeys: make([]uint32, len(bufs))}
		for i, buf := range bufs {
			v.RKeys[i] = b.RegionFor(uint64(buf.Base())).RKey()
		}
		switch st, _ := b.Stack().QPStateOf(qpb); {
		case keep && st == roce.QPStateRTS:
		case b.Crashed():
			v.Err = fmt.Errorf("%w: %v is down", roce.ErrPeerCrashed, b.Identity().IP)
		default:
			if v.Err = b.Stack().ResetQP(qpb); v.Err == nil {
				v.Reset = true
				// Fails only if B crashed meanwhile; A's next verb finds that out.
				p.EngB.Schedule(delay, func() { _ = b.Stack().ReconnectQP(qpb) })
			}
		}
		p.EngB.CrossSchedule(p.Eng, delay, func() {
			if v.Reset {
				if v.Err = p.A.Stack().ResetQP(qpa); v.Err == nil {
					v.Err = p.A.Stack().ReconnectQP(qpa)
				}
			}
			done(v)
		})
	})
}

// New10G is the common case: the 10 G testbed with 32 MB buffers.
func New10G(seed int64) (*Pair, error) {
	return New(seed, core.Profile10G(), fabric.DirectCable10G(), 32<<20)
}
