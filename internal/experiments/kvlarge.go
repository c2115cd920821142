package experiments

import (
	"errors"
	"fmt"

	"strom/internal/fabric"
	"strom/internal/kvserve"
	"strom/internal/mr"
	"strom/internal/packet"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/stats"
	"strom/internal/workload"
)

// The chaos-kv-large scenario is the torn-read capstone: the KV
// dataplane's large-value path (CRC-guarded out-of-line extents read
// through the NIC-side consistency kernel) driven into deliberate
// read/overwrite races. A dedicated racer process overwrites a small
// set of hot spilled keys back-to-back while the main workload reads
// them, so a Get's slot read and its kernel extent read keep straddling
// an in-place extent overwrite — the exact window the version-stamped
// publish ordering turns from silent corruption into a detected,
// retried torn read. Escalating regimes stack Gilbert-Elliott loss and
// crash/restart cycles on top of the race; the audit fails the run on
// any torn value served, and the crash points must prove orphan
// extents (written but never published) are reaped, never served.
//
// The topology is the bare kvBed, four machines on the PFC/ECN switch:
// m0 runs the client (two sessions: workload + racer), m1-m3 the servers.

// kvlKeys keeps the key space small enough that the zipfian head keys
// see many versions; the hot keys live outside the zipfian draw.
const kvlKeys = 256

// kvlHotKeys are the racer's targets — one per shard, so every server's
// extent arena sees the in-place overwrite race, and the crash cycles
// (shards 0 and 2) land on hot primaries mid-publish.
var kvlHotKeys = []uint64{4, 5, 6}

// kvlFaults selects one chaos-kv-large sweep point's regime. racing is
// the scenario's reason to exist; loss and crashes stack onto it.
type kvlFaults struct {
	racing  bool // racer process overwriting the hot spilled keys
	loss    bool // Gilbert-Elliott loss + dup + reorder on server links
	crashes bool // staggered crash/restart cycles on shards 0 and 2
}

func (f kvlFaults) label() string {
	switch {
	case f.crashes:
		return "crash"
	case f.loss:
		return "loss"
	case f.racing:
		return "racing"
	}
	return "clean"
}

// runKVLarge drives one chaos-kv-large point and writes the exports ex
// asks for. The run fails — rather than producing a measurement — on
// any torn value served, lost acked write, misapplied slot or extent,
// arena leak, or non-convergent deficit; the racing points additionally
// fail if no torn read was detected and retried, and the crash points if
// no orphan extent was reaped.
func runKVLarge(o Options, f kvlFaults, ex Exports) (kvMeasure, error) {
	o = o.normalized()
	label := "chaos-kv-large " + f.label()
	// The torn-read rate rule ships in DefaultRules and watches the
	// client's kv_torn_detected surface. Sessions: workload + racer.
	k, err := newKVBed(o, kvServerM+kvServers, ex, kvserve.Config{NumKeys: kvlKeys, Sessions: 2})
	if err != nil {
		return kvMeasure{}, err
	}
	net, cl := k.net, k.cl
	if f.racing {
		// The racer overwrites slots and extents its own reads are
		// in flight against, so a chaos-duplicated READ replayed by the
		// responder can legitimately serve post-overwrite bytes.
		for _, ck := range k.checkers {
			ck.SetVolatileReads(true)
		}
	}
	if f.loss {
		k.lossOnServerLinks()
	}

	// Crash cycles land on the hot keys' shards, each inside a publish
	// window (crashInPublishWindows): a spilled write caught between its
	// extent and its slot leaves an orphan image the post-restart repair
	// or the next overwrite must reap. The cycles run one after the other,
	// so no shard ever loses both replicas and every acked write survives.
	if f.crashes {
		k.crashInPublishWindows([]int{0, 2, 0, 2}, sim.Time(600*sim.Microsecond), 800*sim.Microsecond, 200*sim.Microsecond)
	}

	zipf, err := workload.NewZipfian(kvlKeys, 0.9, o.Seed, true)
	if err != nil {
		return kvMeasure{}, err
	}
	// coldKey remaps zipfian draws off the hot keys: cold keys have a
	// single writer process, so inline puts and deletes never race a
	// spill on the same key (the hot keys are exclusively PutLarge/Get —
	// an in-place extent overwrite race, never a free/realloc race).
	coldKey := func() uint64 {
		key := uint64(zipf.Next()) + 1
		for _, h := range kvlHotKeys {
			if key == h {
				return key + uint64(len(kvlHotKeys))
			}
		}
		return key
	}

	c := cl.Client
	eng := net.Machines[kvClientM].Eng
	rng := eng.Rand()
	// ErrPeerCrashed rides along with the crash cycles: an op can reach
	// a just-crashed server before the heartbeat watchdog marks it down,
	// and the failed reconnect is what teaches the client (MarkDown).
	// ErrTooManyReads is loss backpressure: delayed ACKs keep kernel
	// reads in flight until their deadline, so a burst of hot-key Gets
	// can exhaust the per-QP read budget; the op fails cleanly without
	// weakening any exactly-once or torn-read guarantee.
	tolerated := func(err error) bool {
		return err == nil || errors.Is(err, kvserve.ErrUnavailable) ||
			errors.Is(err, kvserve.ErrStale) || errors.Is(err, kvserve.ErrTorn) ||
			errors.Is(err, sim.ErrDeadlineExceeded) || errors.Is(err, roce.ErrPeerCrashed) ||
			errors.Is(err, roce.ErrTooManyReads)
	}

	// The racer: back-to-back in-place overwrites of the hot spilled
	// keys, as fast as the put path allows. Its writes are what the main
	// workload's hot-key Gets tear against.
	racerOps := 0
	if f.racing {
		racerOps = 60 * o.Iterations
	}
	racerDone := racerOps == 0
	var racerErr error
	if f.racing {
		eng.Go("kv-racer", func(p *sim.Process) {
			defer func() { racerDone = true }()
			for i := 0; i < racerOps; i++ {
				if err := c.PutLarge(p, kvlHotKeys[i%len(kvlHotKeys)]); !tolerated(err) {
					racerErr = fmt.Errorf("racer op %d: %w", i, err)
					return
				}
			}
		})
	}

	ops := 100 * o.Iterations
	var runErr error
	eng.Go("kv-client", func(p *sim.Process) {
		// Warm the hot keys so every point (including clean) exercises
		// the spill path and the kernel read.
		for _, h := range kvlHotKeys {
			if err := c.PutLarge(p, h); !tolerated(err) {
				runErr = fmt.Errorf("warmup key %d: %w", h, err)
				return
			}
		}
		collisions := 0
		if f.racing {
			collisions = len(kvlHotKeys)
		}
		for i := 0; i < ops; i++ {
			if c.RepairDue() {
				c.Repair(p)
			}
			var err error
			switch r := rng.Intn(100); {
			case r < 35:
				// Hot-key reads: the torn-read collision surface. The
				// first few are scripted into the race (collide).
				key := kvlHotKeys[rng.Intn(len(kvlHotKeys))]
				if collisions > 0 && !racerDone {
					collisions--
					k.collide(key)
				}
				_, _, err = c.Get(p, key)
			case r < 55:
				err = c.PutLarge(p, coldKey())
			case r < 70:
				err = c.Put(p, coldKey())
			case r < 90:
				_, _, err = c.Get(p, coldKey())
			default:
				err = c.Delete(p, coldKey())
			}
			if !tolerated(err) {
				runErr = fmt.Errorf("op %d: %w", i, err)
				return
			}
		}
		// Converge only after the racer has stopped moving versions.
		for !racerDone {
			p.Sleep(50 * sim.Microsecond)
		}
		k.converge(p)
	})
	k.probe()
	net.Run()

	if runErr != nil {
		return kvMeasure{}, fmt.Errorf("%s: %w", label, runErr)
	}
	if racerErr != nil {
		return kvMeasure{}, fmt.Errorf("%s: %w", label, racerErr)
	}
	m, err := k.measure(label)
	if err != nil {
		return m, err
	}
	if m.SpilledReads == 0 {
		return m, fmt.Errorf("%s: no Get went through the consistency kernel: %+v", label, m.Stats)
	}
	if f.racing && (m.TornDetected == 0 || m.TornRetries == 0) {
		return m, fmt.Errorf("%s: racing phase produced no detected+retried torn read: %+v", label, m.Stats)
	}
	if !f.racing && m.TornDetected != 0 {
		return m, fmt.Errorf("%s: torn reads without a racer: %+v", label, m.Stats)
	}
	if f.crashes && m.OrphansReaped == 0 {
		return m, fmt.Errorf("%s: crash cycles left no orphan to reap: %+v", label, m.Stats)
	}
	if f.crashes && (m.detectorFires == 0 || m.Repairs == 0) {
		return m, fmt.Errorf("%s: crash regime never exercised detection/repair: %+v", label, m.Stats)
	}
	return m, k.export()
}

// crashInPublishWindows runs one crash/restart cycle per listed server,
// in turn, each landing inside a publish window. The first cycle arms at
// first, each next one gap after the previous restart. Once a cycle is
// armed, the switch egress toward its server lets the next extent frame
// through and drops the slot frame behind it, and the NIC dies as soon as
// that extent has landed — holding bytes no slot names — to return
// downtime later. With extent and slot posted back to back the window is
// the gap between two frames, so only a frame script can put a crash
// inside it; every other frame stays with the egress's loss site. A cycle
// still waiting for a spilled write when the workload converges never
// fires (kvBed.converge disarms it).
func (k *kvBed) crashInPublishWindows(shards []int, first sim.Time, downtime, gap sim.Duration) {
	if len(shards) == 0 {
		return
	}
	m := k.cl.Servers[shards[0]].M
	// The extent frame is a propagation delay ahead of the slot frame.
	const landed = 2 * sim.Microsecond
	k.net.SwEng.ScheduleAt(first, func() {
		if k.converging {
			return
		}
		k.window = &fabric.FrameScript{Next: k.down[m.Index], Steps: []fabric.FrameStep{
			{Len: packet.WriteFrameLen(kvserve.ExtentSize)},
			{Len: packet.WriteFrameLen(kvserve.SlotSize), Verdict: fabric.Verdict{Drop: true}, Do: func() {
				restart := k.net.SwEng.Now().Add(landed + downtime)
				m.Eng.Schedule(landed, m.NIC.Crash)
				m.Eng.ScheduleAt(restart, m.NIC.Restart)
				k.barrier = restart.Add(gap)
				k.crashInPublishWindows(shards[1:], k.barrier, downtime, gap)
			}},
		}}
		k.net.Sw.SetEgressFaults(m.Index, k.window)
	})
}

// kvlCollideStall holds a scripted collision's kernel read back: three
// racer PutLarges, one pass over the hot keys, take about 17 µs on the
// clean bed, so the racer rewrites the key inside the stall.
const kvlCollideStall = 40 * sim.Microsecond

// collide scripts the next Get of a hot key into the race it exists to
// lose. A spilled Get's slot READ and kernel extent read leave together
// and the responder serves them back to back, so the only window left
// for a racing overwrite is responder-side: an extent WRITE queued
// behind the pair commits over PCIe before the kernel's DMA read samples
// the extent. The server the Get will read gets a DMA observer that
// catches the kernel's read as it is issued and stalls that one command,
// so the racer's next write of the key commits first and the Get
// detects TornOverwrite. The bed installs no other observer or stall.
func (k *kvBed) collide(key uint64) {
	lay, c := k.cl.Lay, k.cl.Client
	sh := lay.ShardOf(key)
	server := lay.PrimaryServer(sh)
	if c.Down(server) {
		server = lay.BackupServer(sh)
	}
	nic := k.cl.Servers[server].M.NIC
	nic.SetDMAObserver(func(need mr.Access, _ uint64, _ int) {
		if need != mr.AccessKernel {
			return
		}
		nic.SetDMAObserver(nil)
		nic.DMA().SetStall(func(sim.Time) sim.Duration {
			nic.DMA().SetStall(nil)
			return kvlCollideStall
		})
	})
}

// kvlSweepPoints is the chaos-kv-large sweep's x axis: the bare
// dataplane, then the race, then loss and crashes stacked onto it.
var kvlSweepPoints = []kvlFaults{
	{},
	{racing: true},
	{racing: true, loss: true},
	{racing: true, loss: true, crashes: true},
}

// ChaosKVLargeSweep runs the large-value dataplane through the four
// regimes and reports the torn-read pipeline's work next to the op
// counters. Any torn value served fails the sweep instead of plotting.
func ChaosKVLargeSweep(o Options) (*stats.Figure, error) {
	return kvSweep("Chaos: large-value KV under racing overwrites, loss and crashes",
		[]string{"acked puts", "large puts", "get ops", "spilled reads", "torn detected", "torn retries",
			"torn failovers", "orphans reaped", "retries", "failovers", "repairs", "detector fires",
			"faults injected", "violations"},
		kvlSweepPoints, func(f kvlFaults) (kvMeasure, error) { return runKVLarge(o, f, Exports{}) })
}

// exportKVLarge is the kvlarge scenario's export: the full regime
// (racing + loss + crashes).
func exportKVLarge(o Options, ex Exports) error {
	_, err := runKVLarge(o, kvlFaults{racing: true, loss: true, crashes: true}, ex)
	return err
}
