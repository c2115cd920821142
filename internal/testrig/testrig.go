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
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
)

// Pair is the two-machine testbed. QP 1 on A is connected to QP 2 on B,
// and each machine has one registered buffer.
//
// A Pair is either unsharded — everything on one engine, the historical
// testbed — or sharded (NewSharded): machine A's components on shard 0,
// machine B's on shard 1 of a two-shard sim.ShardGroup whose lookahead
// is the cable's propagation delay. Workloads always drive the A side
// from Eng; B-side state may be touched during setup and after Run
// returns, but mid-run only from events on EngB.
type Pair struct {
	Eng   *sim.Engine     // machine A's engine (the whole testbed when unsharded)
	EngB  *sim.Engine     // machine B's engine; == Eng unless sharded
	Group *sim.ShardGroup // non-nil when the testbed is sharded
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
func New(seed int64, cfg core.Config, linkCfg fabric.LinkConfig, bufSize int) (*Pair, error) {
	eng := sim.NewEngine(seed)
	return build(eng, eng, nil, cfg, linkCfg, bufSize)
}

// NewSharded builds the testbed with each machine on its own shard of a
// two-shard group, executed by up to workers goroutines (1 = sequential
// execution of the same sharded structure; results are byte-identical
// for every worker count). The cable's propagation delay is the
// conservative lookahead: no frame crosses machines faster than that.
func NewSharded(seed int64, cfg core.Config, linkCfg fabric.LinkConfig, bufSize, workers int) (*Pair, error) {
	group := sim.NewShardGroup(seed, 2, linkCfg.Propagation)
	group.SetWorkers(workers)
	return build(group.Shard(0), group.Shard(1), group, cfg, linkCfg, bufSize)
}

// build assembles the testbed on the given engines (equal when
// unsharded).
func build(engA, engB *sim.Engine, group *sim.ShardGroup, cfg core.Config, linkCfg fabric.LinkConfig, bufSize int) (*Pair, error) {
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

// Run executes the testbed to completion and returns the final simulated
// time: the shard group when sharded, the single engine otherwise.
func (p *Pair) Run() sim.Time {
	if p.Group != nil {
		return p.Group.Run()
	}
	return p.Eng.Run()
}

// Trace process (pid) layout of the instrumented testbed.
const (
	PidA    uint32 = 1
	PidB    uint32 = 2
	PidLink uint32 = 3
)

// Telemetry bundles the observability layer of an instrumented testbed.
type Telemetry struct {
	Registry *telemetry.Registry
	Trace    *telemetry.TraceBuffer
}

// Instrument attaches a fresh metrics registry and trace buffer to both
// NICs and the link: NIC A under pid 1, NIC B under pid 2, the cable
// under pid 3. Call after deploying kernels (each deployment gets a
// trace lane) and before running the workload.
func (p *Pair) Instrument() *Telemetry {
	reg := telemetry.NewRegistry()
	tb := telemetry.NewTrace(p.Eng)
	p.A.AttachTelemetry(reg, tb, PidA, "A")
	// Machine B records into its own trace segment when sharded
	// (ForEngine is the identity on an unsharded pair); the link binds
	// its two directions to their sending shards' segments itself.
	p.B.AttachTelemetry(reg, tb.ForEngine(p.EngB), PidB, "B")
	p.Link.AttachTelemetry(reg, tb, PidLink)
	return &Telemetry{Registry: reg, Trace: tb}
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
		tel.Registry.Histogram("link_utilisation_samples", "fraction",
			telemetry.L("dir", "a-to-b")).ObserveInt(int64(p.Link.UtilisationAtoB() * 100))
	})
	telemetry.Probe(p.EngB, every, func(sim.Time) {
		p.B.TelemetrySample()
		tel.Registry.Histogram("link_utilisation_samples", "fraction",
			telemetry.L("dir", "b-to-a")).ObserveInt(int64(p.Link.UtilisationBtoA() * 100))
	})
}

// RecordJSONL registers the testbed's health surfaces with a JSONL
// recorder: NIC A and the a→b link direction on machine A's engine, NIC
// B and the b→a direction on machine B's (the shard that owns each
// surface scrapes it). On an unsharded pair tel's registry is scraped
// too — one "metrics" event per subsystem per interval. A sharded pair
// exports health events only: the registry's collect callbacks span
// both shards, so scraping it mid-run from one shard would race (the
// end-of-run registry export is Registry.WriteJSON's job there). Pass
// tel nil to skip registry export entirely. Call before rec.Start.
func (p *Pair) RecordJSONL(rec *export.Recorder, tel *Telemetry) {
	rec.Source(p.Eng, "A", "port", "nic:A", p.A.Health)
	rec.Source(p.Eng, "fabric", "link", "a-to-b", p.Link.HealthAtoB)
	rec.Source(p.EngB, "B", "port", "nic:B", p.B.Health)
	rec.Source(p.EngB, "fabric", "link", "b-to-a", p.Link.HealthBtoA)
	if tel != nil && p.Group == nil {
		rec.Registry(p.Eng, "testbed", tel.Registry)
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

// ExchangeRKeys performs the application-level rkey exchange: each side
// learns the current rkey of the peer's registered buffer, so subsequent
// posts carry real keys instead of the wildcard key 0. Call again after
// any Restart (the restarted NIC rotates its keys) and pass the QPs the
// keys should be installed on (defaulting both is Reconnect's QPA/QPB).
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

// Reconnect re-establishes the testbed queue pair after a failure
// (core.Reconnect): it fails with roce.ErrPeerCrashed while either
// machine is down — callers retry under backoff until the peer restarts.
func (p *Pair) Reconnect() error { return p.ReconnectPair(QPA, QPB) }

// ReconnectPair is Reconnect for an arbitrary QP pair created with
// AddQueuePair.
func (p *Pair) ReconnectPair(qpa, qpb uint32) error { return core.Reconnect(p.A, qpa, p.B, qpb) }

// New10G is the common case: the 10 G testbed with 32 MB buffers.
func New10G(seed int64) (*Pair, error) {
	return New(seed, core.Profile10G(), fabric.DirectCable10G(), 32<<20)
}

// New100G is the 100 G testbed with 32 MB buffers.
func New100G(seed int64) (*Pair, error) {
	return New(seed, core.Profile100G(), fabric.DirectCable100G(), 32<<20)
}
