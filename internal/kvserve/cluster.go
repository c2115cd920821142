package kvserve

import (
	"bytes"
	"fmt"
	"sort"

	"strom/internal/hostmem"
	"strom/internal/kernels/consistency"
	"strom/internal/kvstore"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/telemetry/export"
	"strom/internal/testrig"
)

// Config sizes a cluster on an existing testrig.Net.
type Config struct {
	// ClientMachine is the machine index running the client (usually 0).
	ClientMachine int
	// ServerMachines lists the machine indices acting as servers, in
	// shard order: ServerMachines[i] is the primary for shard i.
	ServerMachines []int
	// NumKeys is the key-space size (keys 1..NumKeys).
	NumKeys uint64
	// BlastBytes reserves an incast-target region after each server's
	// tables (0 for none).
	BlastBytes int
	// OpDeadline bounds every data-path verb (default 800 µs).
	OpDeadline sim.Duration
	// Backoff paces the per-replica retry loop (defaulted if zero).
	Backoff sim.Backoff
	// Sessions sizes the client's staging pool — one per concurrent
	// client process (default 1; the racing chaos regime needs 2).
	Sessions int
	// Registry receives the client's kv_op_latency_ps histograms (nil
	// disables them).
	Registry *telemetry.Registry
}

// The retry and liveness policy every cluster runs under.
const (
	// maxAttempts bounds per-replica retries before a write becomes a
	// deficit and a read gives up on the replica.
	maxAttempts = 4
	// tornBudget bounds per-replica re-reads of a torn spilled value
	// before the Get fails over.
	tornBudget = 3
	// heartbeatEvery paces the servers' liveness counters; HeartbeatRule
	// holds for eight of them.
	heartbeatEvery = 50 * sim.Microsecond
)

func (cfg Config) withDefaults() Config {
	if cfg.OpDeadline <= 0 {
		cfg.OpDeadline = 800 * sim.Microsecond
	}
	if cfg.Backoff == (sim.Backoff{}) {
		cfg.Backoff = sim.Backoff{Base: 100 * sim.Microsecond, Max: 2 * sim.Millisecond, Factor: 2, Jitter: 0.5}
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	return cfg
}

// Cluster ties the servers and the client together on a switched
// testbed.
type Cluster struct {
	Net     *testrig.Net
	Lay     Layout
	Servers []*Server
	Client  *Client
	// Kernels holds each server NIC's consistency kernel (index ==
	// shard), deployed at ConsistencyOp for spilled-value reads.
	Kernels []*consistency.Kernel
}

// HeartbeatRule is the failure-detection rule the cluster's telemetry
// stream is meant to be evaluated under: the per-server heartbeat
// counter must keep moving while the server claims to be serving.
// Appended to export.DefaultRules by chaos-kv (it is KV-specific, so it
// does not live in DefaultRules itself).
func HeartbeatRule() export.Rule {
	return export.Rule{
		Name:   "kv-heartbeat",
		Metric: "kv_heartbeats",
		Kind:   export.NoProgress,
		For:    400 * sim.Microsecond,
		While:  "kv_serving",
	}
}

// New builds servers and client over net. Connections, rkey exchange
// and heartbeats are all set up; the caller still registers health
// sources (RegisterHealth) and the failover controller
// (AttachController) if it records telemetry.
func New(net *testrig.Net, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	s := len(cfg.ServerMachines)
	if s < 2 {
		return nil, fmt.Errorf("kvserve: need at least 2 servers, have %d", s)
	}
	if cfg.NumKeys == 0 {
		return nil, fmt.Errorf("kvserve: NumKeys must be positive")
	}
	lay := Layout{Shards: s, NumKeys: cfg.NumKeys}
	cl := &Cluster{Net: net, Lay: lay}
	for shard, mi := range cfg.ServerMachines {
		srv, err := NewServer(net.Machines[mi], shard, lay, cfg.BlastBytes)
		if err != nil {
			return nil, err
		}
		srv.StartHeartbeat()
		k := consistency.New(0)
		if err := srv.M.NIC.DeployKernel(ConsistencyOp, k); err != nil {
			return nil, fmt.Errorf("kvserve: deploy consistency kernel on m%d: %w", mi, err)
		}
		cl.Kernels = append(cl.Kernels, k)
		cl.Servers = append(cl.Servers, srv)
	}
	cm := net.Machines[cfg.ClientMachine]
	if cm.Buf.Size() < cfg.Sessions*sessionBytes {
		return nil, fmt.Errorf("kvserve: client buffer %d B < %d B for %d sessions", cm.Buf.Size(), cfg.Sessions*sessionBytes, cfg.Sessions)
	}
	c := &Client{
		net:       net,
		lay:       lay,
		idx:       cfg.ClientMachine,
		m:         cm,
		servers:   cl.Servers,
		down:      make([]bool, s),
		repairDue: make([]bool, s),
		issued:    make(map[uint64]uint64),
		acked:     make(map[uint64]uint64),
		deleted:   make(map[uint64]map[uint64]bool),
		larges:    make(map[uint64]map[uint64]bool),
		ext:       make(map[uint64]*extRef),
		bo:        cfg.Backoff,
		deadline:  cfg.OpDeadline,
		reg:       cfg.Registry,
		histPut:   cfg.Registry.Histogram("kv_op_latency_ps", "ps", telemetry.L("op", "put")),
		histGet:   cfg.Registry.Histogram("kv_op_latency_ps", "ps", telemetry.L("op", "get")),
	}
	for i := 0; i < cfg.Sessions; i++ {
		c.pool = append(c.pool, newSession(cm.NIC.Memory(), cm.Buf.Base()+hostmem.Addr(i*sessionBytes)))
	}
	for sh := 0; sh < s; sh++ {
		c.arenas = append(c.arenas, kvstore.NewFixedArena(ExtentSize, lay.ExtentsPerShard()))
	}
	for i := range cl.Servers {
		c.deficits = append(c.deficits, make(map[uint64]uint64))
		qpc, qps, err := net.Connect(cfg.ClientMachine, cfg.ServerMachines[i])
		if err != nil {
			return nil, err
		}
		c.conns = append(c.conns, conn{qpc: qpc, qps: qps})
		c.refetchRKey(i)
	}
	c.Stats.RKeyRefetches = 0 // setup fetches are not protocol activity
	cl.Client = c
	return cl, nil
}

// TornRule is the torn-read detection rule for the cluster's telemetry
// stream: any movement of the client's kv_torn_detected counter inside
// a 500 µs window fires it (one event in the window is a rate of 2/ms).
// The chaos-kv-large regime requires it to fire during the racing
// phases; a clean stream keeps the counter at zero and stays silent.
// Appended alongside HeartbeatRule by the KV experiments; a copy also
// ships in export.DefaultRules so any stream scraping a KV client gets
// it for free.
func TornRule() export.Rule {
	return export.Rule{
		Name:   "torn-read",
		Metric: "kv_torn_detected",
		Kind:   export.Rate,
		Op:     "gt",
		Value:  0.5,
		For:    500 * sim.Microsecond,
	}
}

// RegisterHealth registers every server's heartbeat surface and the
// client's torn-read surface with the recorder, each on the engine that
// owns it (sound under sharding).
func (cl *Cluster) RegisterHealth(rec *export.Recorder) {
	for _, srv := range cl.Servers {
		rec.Source(srv.M.Eng, fmt.Sprintf("m%d", srv.M.Index), "kv", srv.ObjectName(), srv.Health)
	}
	c := cl.Client
	rec.Source(c.m.Eng, fmt.Sprintf("m%d", c.m.Index), "kvclient", "kvcli", c.Health)
}

// AttachController wires the telemetry-driven failover controller: when
// the heartbeat watchdog fires for a server the client's shard map
// marks it down (Gets fail over to the backup, Puts stop waiting on
// it), and when the alert resolves the server is marked back up and a
// repair pass is scheduled for whatever writes it missed.
func (cl *Cluster) AttachController(rec *export.Recorder) {
	rule := HeartbeatRule().Name
	rec.OnAlert(func(ev export.AlertEvent) {
		if ev.Rule != rule {
			return
		}
		var shard int
		if _, err := fmt.Sscanf(ev.Object, "kvsrv:%d", &shard); err != nil {
			return
		}
		switch ev.Type {
		case "alert":
			cl.Client.MarkDown(shard)
		case "resolve":
			cl.Client.MarkUp(shard)
		}
	})
}

// Audit is the end-of-run ground-truth check, read host-side out of
// every server's memory (run it after Client.RepairAll so both replicas
// have converged). For every key ever written it asserts, on each
// replica:
//
//   - no lost acked write: the slot version is at least the highest
//     acked version;
//   - no duplicate or phantom application: the slot version never
//     exceeds the highest issued version, and the slot key matches;
//   - no misapplied bytes: the value equals ValueFor(key, slot.Ver)
//     (or an empty tombstone, when that version was a Delete).
//
// Returns human-readable violations; empty means the exactly-once
// guarantee held.
func (cl *Cluster) Audit() []string {
	c := cl.Client
	var violations []string
	keys := make([]uint64, 0, len(c.issued))
	for k := range c.issued {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		issued, acked := c.issued[key], c.acked[key]
		sh := cl.Lay.ShardOf(key)
		for _, server := range []int{cl.Lay.PrimaryServer(sh), cl.Lay.BackupServer(sh)} {
			srv := cl.Servers[server]
			va := cl.Lay.SlotAddr(srv.TableFor(cl.Lay, sh), key)
			b, err := srv.M.NIC.Memory().ReadVirt(va, SlotSize)
			if err != nil {
				violations = append(violations, fmt.Sprintf("key %d server %d: slot unreadable: %v", key, server, err))
				continue
			}
			s := DecodeSlot(b)
			switch {
			case s.Ver < acked:
				violations = append(violations, fmt.Sprintf("key %d server %d: lost acked write: slot ver %d < acked %d", key, server, s.Ver, acked))
			case s.Ver > issued:
				violations = append(violations, fmt.Sprintf("key %d server %d: phantom write: slot ver %d > issued %d", key, server, s.Ver, issued))
			case s.Ver == 0:
				// Never-acked key whose writes all failed: empty is legal.
			case s.Key != key:
				violations = append(violations, fmt.Sprintf("key %d server %d: slot holds key %d", key, server, s.Key))
			default:
				if s.Tombstone() != c.wasDelete(key, s.Ver) {
					violations = append(violations, fmt.Sprintf("key %d server %d ver %d: tombstone flag mismatch", key, server, s.Ver))
					continue
				}
				if s.Flags&FlagSpilled != 0 {
					violations = append(violations, cl.auditExtent(key, server, s)...)
					continue
				}
				if c.wasLarge(key, s.Ver) {
					violations = append(violations, fmt.Sprintf("key %d server %d ver %d: large version stored inline", key, server, s.Ver))
					continue
				}
				want := c.expectedVal(key, s.Ver)
				if string(s.Val) != string(want) {
					violations = append(violations, fmt.Sprintf("key %d server %d ver %d: misapplied value (%d B, want %d B)", key, server, s.Ver, len(s.Val), len(want)))
				}
			}
		}
	}
	// Arena accounting: every shard arena must hold exactly one live
	// extent per spilled key it owns — anything more is a leak, anything
	// less a double free.
	perShard := make([]int, cl.Lay.Shards)
	for key := range c.ext {
		perShard[cl.Lay.ShardOf(key)]++
	}
	for sh, arena := range c.arenas {
		if arena.Live() != perShard[sh] {
			violations = append(violations, fmt.Sprintf("shard %d arena: %d live extents, %d spilled keys", sh, arena.Live(), perShard[sh]))
		}
	}
	return violations
}

// auditExtent is Audit's ground-truth check of one replica's spilled
// value: the slot's spill ref must point at the key's live extent, and
// the extent image read straight out of server memory must be CRC-clean
// and agree with the slot on key, version and the deterministic value.
func (cl *Cluster) auditExtent(key uint64, server int, s Slot) []string {
	c := cl.Client
	sh := cl.Lay.ShardOf(key)
	srv := cl.Servers[server]
	off, vlen, ok := DecodeSpillRef(s.Val)
	if !ok {
		return []string{fmt.Sprintf("key %d server %d ver %d: unparseable spill ref", key, server, s.Ver)}
	}
	ref := c.ext[key]
	if ref == nil || ref.off != off {
		return []string{fmt.Sprintf("key %d server %d ver %d: spill ref points at freed or foreign extent %d", key, server, s.Ver, off)}
	}
	b, err := srv.M.NIC.Memory().ReadVirt(cl.Lay.ExtentAddr(srv.ArenaFor(cl.Lay, sh), off), ExtentSize)
	if err != nil {
		return []string{fmt.Sprintf("key %d server %d: extent unreadable: %v", key, server, err)}
	}
	ext := DecodeExtent(b)
	switch {
	case ext.Torn:
		return []string{fmt.Sprintf("key %d server %d ver %d: extent CRC mismatch", key, server, s.Ver)}
	case ext.Key != key:
		return []string{fmt.Sprintf("key %d server %d: extent holds key %d", key, server, ext.Key)}
	case ext.Ver != s.Ver:
		return []string{fmt.Sprintf("key %d server %d: torn at rest: slot ver %d, extent ver %d", key, server, s.Ver, ext.Ver)}
	case len(ext.Val) != vlen:
		return []string{fmt.Sprintf("key %d server %d ver %d: extent len %d, spill ref len %d", key, server, s.Ver, len(ext.Val), vlen)}
	case !bytes.Equal(ext.Val, c.expectedVal(key, s.Ver)):
		return []string{fmt.Sprintf("key %d server %d ver %d: misapplied extent value", key, server, s.Ver)}
	}
	return nil
}

// CrashCycle schedules a crash/restart cycle on the given server: the
// NIC goes down at at and comes back downtime later (host memory — the
// shard tables — survives; rkeys rotate).
func (cl *Cluster) CrashCycle(shard int, at sim.Time, downtime sim.Duration) {
	m := cl.Servers[shard].M
	m.Eng.ScheduleAt(at, func() { m.NIC.Crash() })
	m.Eng.ScheduleAt(at.Add(downtime), func() { m.NIC.Restart() })
}

// BlastTarget returns the blast region of a server for incast
// aggressors: base address, length and a live rkey fetcher.
func (cl *Cluster) BlastTarget(shard int) (hostmem.Addr, int, func() uint32) {
	srv := cl.Servers[shard]
	return srv.BlastVA, srv.BlastLen, func() uint32 {
		if r := srv.M.NIC.RegionFor(uint64(srv.M.Buf.Base())); r != nil {
			return r.RKey()
		}
		return 0
	}
}
