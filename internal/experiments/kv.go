package experiments

import (
	"errors"
	"fmt"
	"sort"

	"strom/internal/chaos"
	"strom/internal/fabric"
	"strom/internal/kvserve"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/telemetry"
	"strom/internal/workload"
)

// The chaos-kv scenario is the robustness capstone: the replicated
// sharded KV dataplane (internal/kvserve) driven by a skewed workload
// through escalating fault regimes on the switched testbed, with the
// exactly-once guarantee audited against ground truth at every point.
// The topology is seven machines on one PFC/ECN switch:
//
//	m0    KV client (shard map, versions, retry protocol)
//	m1-m3 KV servers (primary shard i-1, backup of its predecessor)
//	m4-m5 incast blasters hammering a server's blast region
//	m6    rogue requester forging accesses into a server's KV memory
//
// Checker invariants, rogue containment, shard convergence, the
// client's online violation counters and a host-side ground-truth audit
// gate every point.

// Machine roles in the chaos-kv topology; every kvBed has the first two.
const (
	kvClientM = 0
	kvServerM = 1 // machines 1..3 carry shards 0..2
	kvServers = 3

	kvBlasterAM = 4
	kvBlasterBM = 5
	kvRogueM    = 6
	kvMachines  = 7
)

// kvKeys is the key-space size; with ~150 ops per iteration unit the
// zipfian head keys see many versions while the tail stays cold.
const kvKeys = 4096

// kvFaults selects one chaos-kv sweep point's fault regime. Each level
// implies the previous ones in the sweep (clean -> loss -> crash ->
// storm), but the flags are independent so tests can isolate a regime.
type kvFaults struct {
	loss    bool // Gilbert-Elliott loss + dup + reorder on every server link
	crashes bool // staggered crash/restart cycles on shards 0 and 2
	storm   bool // incast blasters into shard 1's blast region + rogue forgery
}

func (f kvFaults) label() string {
	switch {
	case f.storm:
		return "storm"
	case f.crashes:
		return "crash"
	case f.loss:
		return "loss"
	}
	return "clean"
}

// kvMeasure is one KV point's outcome: the client's counters at the
// end of the run, its op-latency quantiles, and the harness's own.
type kvMeasure struct {
	kvserve.Stats
	putP50, putP99, putP999 sim.Duration
	getP50, getP99, getP999 sim.Duration

	detectorFires uint64
	faults        uint64
	violations    int
}

// latQuantile returns the q-quantile of the samples (nearest rank).
func latQuantile(samples []sim.Duration, q float64) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]sim.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)-1) + 0.5)
	return s[idx]
}

// kvLinkFaults is the per-direction impairment of the loss regimes:
// the 2% bursty-loss mix with light duplication and reordering, enough
// to exercise retries and the duplicate-suppression probe without
// starving the workload.
func kvLinkFaults() chaos.LinkFaults {
	return chaos.LinkFaults{
		Loss:        chaos.BurstyLoss(0.02),
		DupProb:     0.01,
		DupDelay:    2 * sim.Microsecond,
		ReorderProb: 0.01,
		ReorderMax:  5 * sim.Microsecond,
	}
}

// runKV drives one chaos-kv point and writes the exports ex asks for.
// The run fails — rather than producing a measurement — on any lost
// acked write, duplicate-applied Put, stale read past an acked version,
// protocol invariant violation, rogue success, or non-convergent
// deficit.
func runKV(o Options, f kvFaults, ex Exports) (kvMeasure, error) {
	o = o.normalized()
	label := "chaos-kv " + f.label()
	k, err := newKVBed(o, kvMachines, ex, kvserve.Config{NumKeys: kvKeys, BlastBytes: 256 << 10})
	if err != nil {
		return kvMeasure{}, err
	}
	net, cl := k.net, k.cl
	if f.loss {
		k.lossOnServerLinks()
	}

	// Crash cycles: shard 0's server dies early, shard 2's mid-run; the
	// cycles are staggered so the cluster never loses both replicas of
	// any shard and every acked write survives.
	if f.crashes {
		cl.CrashCycle(0, sim.Time(600*sim.Microsecond), 1200*sim.Microsecond)
		cl.CrashCycle(2, sim.Time(2200*sim.Microsecond), 1200*sim.Microsecond)
		k.barrier = sim.Time(4 * sim.Millisecond)
	}

	// Storm: two blasters pour 4 KB write trains into shard 1's blast
	// region (same machine the KV traffic hits, disjoint memory), in two
	// waves that congest the server's switch port mid-workload; a rogue
	// forges accesses into the same server's registered buffer, which
	// must all be NAK'd.
	var rogue *chaos.Rogue
	if f.storm {
		blastVA, blastLen, _ := cl.BlastTarget(1)
		victim := k.servers[1]
		wave := 6 * o.Iterations
		for bi, mi := range []int{kvBlasterAM, kvBlasterBM} {
			qp, _, cerr := net.Connect(mi, victim)
			if cerr != nil {
				return kvMeasure{}, cerr
			}
			src := uint64(net.Machines[mi].Buf.Base())
			dst := uint64(blastVA) + uint64(bi)*uint64(blastLen/2)
			k.writeTrain(mi, qp, src, dst, wave, sim.Time(500*sim.Microsecond), nil)
			k.writeTrain(mi, qp, src, dst, wave, sim.Time(2500*sim.Microsecond), nil)
		}

		vm := net.Machines[victim]
		rqp, sqp, cerr := net.Connect(kvRogueM, victim)
		if cerr != nil {
			return kvMeasure{}, cerr
		}
		rogue, err = chaos.NewRogue(net.Machines[kvRogueM].NIC, chaos.RogueConfig{
			QPN:     rqp,
			LocalVA: uint64(net.Machines[kvRogueM].Buf.Base()),
			Target: chaos.RogueTarget{
				Base: uint64(vm.Buf.Base()),
				Size: uint64(vm.Buf.Size()),
				Key: func() uint32 {
					if r := vm.NIC.RegionFor(uint64(vm.Buf.Base())); r != nil {
						return r.RKey()
					}
					return 0
				},
			},
			Ops:        8,
			OpDeadline: 500 * sim.Microsecond,
			Backoff:    30 * sim.Microsecond,
			Reconnect:  func() error { return net.ReconnectPair(kvRogueM, victim, rqp, sqp) },
		}, nil)
		if err != nil {
			return kvMeasure{}, err
		}
		rogue.Start()
	}

	// Skewed workload: zipfian keys, 60% Put / 35% Get / 5% Delete. The
	// client repairs recovered servers opportunistically between ops and
	// converges every deficit once the last scheduled restart is past.
	zipf, err := workload.NewZipfian(kvKeys, 0.9, o.Seed, true)
	if err != nil {
		return kvMeasure{}, err
	}
	ops := 150 * o.Iterations
	c := cl.Client
	eng := net.Machines[kvClientM].Eng
	rng := eng.Rand()
	var runErr error
	eng.Go("kv-client", func(p *sim.Process) {
		for i := 0; i < ops; i++ {
			if c.RepairDue() {
				c.Repair(p)
			}
			key := uint64(zipf.Next()) + 1
			var err error
			switch r := rng.Intn(100); {
			case r < 60:
				err = c.Put(p, key)
			case r < 95:
				_, _, err = c.Get(p, key)
			default:
				err = c.Delete(p, key)
			}
			// Unavailability (both replicas of a shard down) and failed
			// reads under faults are expected and counted; anything else
			// is a protocol bug.
			if err != nil && !errors.Is(err, kvserve.ErrUnavailable) &&
				!errors.Is(err, kvserve.ErrStale) && !errors.Is(err, sim.ErrDeadlineExceeded) {
				runErr = fmt.Errorf("op %d key %d: %w", i, key, err)
				return
			}
		}
		k.converge(p)
	})
	k.probe()
	net.Run()

	if runErr != nil {
		return kvMeasure{}, fmt.Errorf("%s: %w", label, runErr)
	}
	var own []string
	if rogue != nil && rogue.Stats().Unexpected > 0 {
		own = append(own, fmt.Sprintf("rogue: %d forged requests completed (protection failed)", rogue.Stats().Unexpected))
	}
	m, err := k.measure(label, own...)
	if err != nil {
		return m, err
	}
	if f.crashes && (m.detectorFires == 0 || m.Failovers == 0 || m.Repairs == 0) {
		return m, fmt.Errorf("%s: crash regime never exercised detection/failover/repair: %+v", label, m.Stats)
	}
	return m, k.export()
}

// kvSweepPoints is the chaos-kv sweep's x axis: escalating fault
// regimes, each including the previous.
var kvSweepPoints = []kvFaults{
	{},
	{loss: true},
	{loss: true, crashes: true},
	{loss: true, crashes: true, storm: true},
}

// kvColumns is every series a KV sweep can plot, by name.
var kvColumns = map[string]func(kvMeasure) float64{
	"put p50 (us)":    func(m kvMeasure) float64 { return m.putP50.Microseconds() },
	"put p99 (us)":    func(m kvMeasure) float64 { return m.putP99.Microseconds() },
	"put p999 (us)":   func(m kvMeasure) float64 { return m.putP999.Microseconds() },
	"get p50 (us)":    func(m kvMeasure) float64 { return m.getP50.Microseconds() },
	"get p99 (us)":    func(m kvMeasure) float64 { return m.getP99.Microseconds() },
	"get p999 (us)":   func(m kvMeasure) float64 { return m.getP999.Microseconds() },
	"acked puts":      func(m kvMeasure) float64 { return float64(m.AckedPuts) },
	"large puts":      func(m kvMeasure) float64 { return float64(m.LargePuts) },
	"get ops":         func(m kvMeasure) float64 { return float64(m.Gets) },
	"spilled reads":   func(m kvMeasure) float64 { return float64(m.SpilledReads) },
	"torn detected":   func(m kvMeasure) float64 { return float64(m.TornDetected) },
	"torn retries":    func(m kvMeasure) float64 { return float64(m.TornRetries) },
	"torn failovers":  func(m kvMeasure) float64 { return float64(m.TornFailovers) },
	"orphans reaped":  func(m kvMeasure) float64 { return float64(m.OrphansReaped) },
	"retries":         func(m kvMeasure) float64 { return float64(m.Retries) },
	"failovers":       func(m kvMeasure) float64 { return float64(m.Failovers) },
	"dup suppressed":  func(m kvMeasure) float64 { return float64(m.DupSuppressed) },
	"stale rerouted":  func(m kvMeasure) float64 { return float64(m.StaleRerouted) },
	"rkey refetches":  func(m kvMeasure) float64 { return float64(m.RKeyRefetches) },
	"repairs":         func(m kvMeasure) float64 { return float64(m.Repairs) },
	"detector fires":  func(m kvMeasure) float64 { return float64(m.detectorFires) },
	"faults injected": func(m kvMeasure) float64 { return float64(m.faults) },
	"violations":      func(m kvMeasure) float64 { return float64(m.violations) },
}

// kvSweep runs every point and plots the named columns.
func kvSweep[F interface{ label() string }](title string, columns []string, points []F, run func(F) (kvMeasure, error)) (*stats.Figure, error) {
	fig := stats.NewFigure(title, "fault regime", "see series")
	series := make([]*stats.Series, len(columns))
	for si, name := range columns {
		series[si] = fig.NewSeries(name)
	}
	for i, f := range points {
		m, err := run(f)
		if err != nil {
			return nil, err
		}
		for si, name := range columns {
			series[si].Add(float64(i), f.label(), kvColumns[name](m))
		}
	}
	return fig, nil
}

// ChaosKVSweep runs the replicated KV dataplane through the four fault
// regimes and reports op latency next to the protocol's work counters.
// Any exactly-once violation fails the sweep instead of plotting.
func ChaosKVSweep(o Options) (*stats.Figure, error) {
	return kvSweep("Chaos: replicated KV under loss, crashes and storms",
		[]string{"put p50 (us)", "put p99 (us)", "put p999 (us)", "get p50 (us)", "get p99 (us)", "get p999 (us)",
			"acked puts", "get ops", "retries", "failovers", "dup suppressed", "stale rerouted", "rkey refetches",
			"repairs", "detector fires", "faults injected", "violations"},
		kvSweepPoints, func(f kvFaults) (kvMeasure, error) { return runKV(o, f, Exports{}) })
}

// exportKV is the kv scenario's export: the storm regime (loss + crashes
// + incast + rogue).
func exportKV(o Options, ex Exports) error {
	_, err := runKV(o, kvFaults{loss: true, crashes: true, storm: true}, ex)
	return err
}

// kvBed is the replicated-KV cluster on the bed: m0 the client, m1–m3
// the servers (primary of shard i-1, backup of its predecessor), any
// further machines the scenario's own. Failure detection runs the
// production path whether or not anything is exported: every server's
// heartbeat is scraped by the recorder, whose kv-heartbeat watchdog
// drives the client's shard map through Cluster.AttachController.
type kvBed struct {
	*bed
	cl      *kvserve.Cluster
	servers []int
	sites   []*chaos.FaultSite
	down    map[int]fabric.FaultInjector // by machine: the loss site on the switch egress toward it
	barrier sim.Time                     // converge waits for it: the last scheduled restart is past

	// The crash cycle waiting for its publish window (crashInPublishWindows).
	window     *fabric.FrameScript
	converging bool
}

// newKVBed builds the cluster; cfg carries what differs between regimes
// (key space, blast region, torn budget, sessions). The recorder is
// running on return, ahead of any fault the scenario schedules.
func newKVBed(o Options, machines int, ex Exports, cfg kvserve.Config) (*kvBed, error) {
	// Unsharded: the client process crashes and repairs the servers.
	b, err := newBed(o.Seed, machines, 0, ex, kvserve.HeartbeatRule())
	if err != nil {
		return nil, err
	}
	// The client's op-latency histograms always live in a registry: it
	// feeds the op-latency-p99 rule when the run streams JSONL.
	if b.reg == nil {
		b.reg = telemetry.NewRegistry()
	}
	k := &kvBed{bed: b, servers: make([]int, kvServers), down: map[int]fabric.FaultInjector{}}
	for i := range k.servers {
		k.servers[i] = kvServerM + i
	}
	cfg.ClientMachine = kvClientM
	cfg.ServerMachines = k.servers
	cfg.OpDeadline = 600 * sim.Microsecond
	cfg.Backoff = sim.Backoff{Base: 50 * sim.Microsecond, Max: 800 * sim.Microsecond, Factor: 2, Jitter: 0.5}
	cfg.Registry = b.reg
	if k.cl, err = kvserve.New(b.net, cfg); err != nil {
		return nil, err
	}
	k.cl.RegisterHealth(b.rec)
	k.cl.AttachController(b.rec)
	b.record(20 * sim.Microsecond)
	return k, nil
}

// lossOnServerLinks puts the loss regimes' fault mix on both directions
// of every server link: the NIC-side uplink carries requests and ACKs
// toward the switch, the switch egress carries them toward the server.
func (k *kvBed) lossOnServerLinks() {
	for _, mi := range k.servers {
		m := k.net.Machines[mi]
		up := chaos.NewFaultSite(m.Eng, fmt.Sprintf("m%d-up", mi), kvLinkFaults(), nil, 0)
		down := chaos.NewFaultSite(k.net.SwEng, fmt.Sprintf("m%d-down", mi), kvLinkFaults(), nil, 0)
		m.Port.SetFaults(up)
		k.net.Sw.SetEgressFaults(mi, down)
		k.sites = append(k.sites, up, down)
		k.down[mi] = down
	}
}

// faults is the number of faults the link sites injected.
func (k *kvBed) faults() uint64 {
	var n uint64
	for _, s := range k.sites {
		n += s.Stats().Total()
	}
	return n
}

// converge ends a client process: wait out the crash schedule, then
// repair until no replica write is owed.
func (k *kvBed) converge(p *sim.Process) {
	if k.converging = true; k.window != nil {
		k.window.Steps = nil
	}
	if now := p.Now(); now < k.barrier {
		p.Sleep(k.barrier.Sub(now))
	}
	c := k.cl.Client
	for tries := 0; tries < 5 && (c.RepairDue() || c.Deficits() > 0); tries++ {
		c.RepairAll(p)
	}
}

// measure gates the finished run — checker invariants, own (the
// scenario's findings), shard convergence, the client's online
// violation counters and the host-side ground-truth audit of every slot
// and extent ever written — and reads out the measurement.
func (k *kvBed) measure(label string, own ...string) (kvMeasure, error) {
	c := k.cl.Client
	if d := c.Deficits(); d != 0 {
		own = append(own, fmt.Sprintf("convergence: %d replica writes still owed after RepairAll", d))
	}
	if c.Stats.StaleServed != 0 {
		own = append(own, fmt.Sprintf("guarantee: %d Gets served stale past an acked version", c.Stats.StaleServed))
	}
	if c.Stats.Misapplied != 0 {
		own = append(own, fmt.Sprintf("guarantee: %d slots observed with misapplied bytes", c.Stats.Misapplied))
	}
	if c.Stats.TornServed != 0 {
		own = append(own, fmt.Sprintf("guarantee: %d torn large values crossed the serve boundary", c.Stats.TornServed))
	}
	n, err := k.gate(label, append(own, k.cl.Audit()...)...)
	return kvMeasure{
		Stats:         c.Stats,
		putP50:        latQuantile(c.PutLat, 0.50),
		putP99:        latQuantile(c.PutLat, 0.99),
		putP999:       latQuantile(c.PutLat, 0.999),
		getP50:        latQuantile(c.GetLat, 0.50),
		getP99:        latQuantile(c.GetLat, 0.99),
		getP999:       latQuantile(c.GetLat, 0.999),
		detectorFires: k.rec.Fired(kvserve.HeartbeatRule().Name),
		faults:        k.faults(),
		violations:    n,
	}, err
}
