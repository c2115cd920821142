package testrig

import (
	"fmt"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/telemetry/export"
)

// Net is the switched multi-machine testbed: N machines hanging off the
// ports of one shared-buffer switch. It generalises Pair past two
// machines (the ">2 shards" step of the roadmap).
//
// Unsharded (NewNet) everything lives on one engine. Sharded
// (NewNetSharded) each machine owns shard i and the switch owns shard N
// of an (N+1)-shard group whose lookahead is the cable propagation
// delay; each NIC↔switch link additionally declares its own per-link
// lookahead bound (sim.ShardGroup.SetLinkLookahead).
type Net struct {
	Group    *sim.ShardGroup // nil when unsharded
	SwEng    *sim.Engine     // the switch's engine (own shard when sharded)
	Sw       *fabric.Switch
	Machines []*NetMachine
}

// NetMachine is one machine of the switched testbed.
type NetMachine struct {
	Index int
	Eng   *sim.Engine
	NIC   *core.NIC
	Port  *fabric.Port // NIC-side switch attachment (PFC pause state)
	Buf   *hostmem.Buffer

	nextQPN uint32
}

// NewNet builds an unsharded switched testbed with n machines.
func NewNet(seed int64, n int, cfg core.Config, swCfg fabric.SwitchConfig, bufBytes int) (*Net, error) {
	eng := sim.NewEngine(seed)
	engs := make([]*sim.Engine, n)
	for i := range engs {
		engs[i] = eng
	}
	return buildNet(engs, eng, nil, cfg, swCfg, bufBytes)
}

// NewNetSharded builds the same topology with machine i on shard i and
// the switch on shard n, executed by up to workers goroutines. Results
// are byte-identical for every worker count.
func NewNetSharded(seed int64, n int, cfg core.Config, swCfg fabric.SwitchConfig, bufBytes, workers int) (*Net, error) {
	if swCfg.Link.Propagation <= 0 {
		return nil, fmt.Errorf("testrig: sharded net needs positive propagation delay")
	}
	group := sim.NewShardGroup(seed, n+1, swCfg.Link.Propagation)
	group.SetWorkers(workers)
	engs := make([]*sim.Engine, n)
	for i := range engs {
		engs[i] = group.Shard(i)
	}
	swEng := group.Shard(n)
	net, err := buildNet(engs, swEng, group, cfg, swCfg, bufBytes)
	if err != nil {
		return nil, err
	}
	// Declare each link's own lookahead: NIC→switch frames take at least
	// propagation + forwarding, switch→NIC (data and PFC control frames)
	// at least propagation. The barrier validates every cross event
	// against these tighter per-link bounds.
	for _, m := range net.Machines {
		group.SetLinkLookahead(m.Eng, swEng, swCfg.Link.Propagation+swCfg.Forwarding)
		group.SetLinkLookahead(swEng, m.Eng, swCfg.Link.Propagation)
	}
	return net, nil
}

// buildNet assembles machines and switch on the given engines.
func buildNet(engs []*sim.Engine, swEng *sim.Engine, group *sim.ShardGroup, cfg core.Config, swCfg fabric.SwitchConfig, bufBytes int) (*Net, error) {
	if len(engs) > core.MaxMachines {
		return nil, fmt.Errorf("testrig: %w: %d asked for", core.ErrTooManyMachines, len(engs))
	}
	sw := fabric.NewSwitchCfg(swEng, swCfg)
	net := &Net{Group: group, SwEng: swEng, Sw: sw}
	for i, eng := range engs {
		id, _ := core.MachineIdentity(i + 1) // in range: checked above
		nic := core.NewNIC(eng, cfg, id)
		port := sw.AttachPortOn(eng, id.MAC, nic)
		nic.SetTransmit(port.Send)
		buf, err := nic.AllocBuffer(bufBytes)
		if err != nil {
			return nil, fmt.Errorf("testrig: %w", err)
		}
		net.Machines = append(net.Machines, &NetMachine{
			Index: i, Eng: eng, NIC: nic, Port: port, Buf: buf, nextQPN: 1,
		})
	}
	return net, nil
}

// Connect creates a queue pair between machines i and j, returning the
// QPNs assigned on each side (sequential per machine, starting at 1).
func (n *Net) Connect(i, j int) (qpi, qpj uint32, err error) {
	mi, mj := n.Machines[i], n.Machines[j]
	qpi, qpj = mi.nextQPN, mj.nextQPN
	mi.nextQPN++
	mj.nextQPN++
	if err := mi.NIC.CreateQP(qpi, mj.NIC.Identity(), qpj); err != nil {
		return 0, 0, fmt.Errorf("testrig: %w", err)
	}
	if err := mj.NIC.CreateQP(qpj, mi.NIC.Identity(), qpi); err != nil {
		return 0, 0, fmt.Errorf("testrig: %w", err)
	}
	return qpi, qpj, nil
}

// ReconnectPair re-establishes a queue pair between machines i and j
// after a failure (core.Reconnect; it fails with roce.ErrPeerCrashed
// while either machine is down).
func (n *Net) ReconnectPair(i, j int, qpi, qpj uint32) error {
	return core.Reconnect(n.Machines[i].NIC, qpi, n.Machines[j].NIC, qpj)
}

// EnableDCQCN turns the DCQCN loop on for every machine's stack.
func (n *Net) EnableDCQCN(cfg roce.DCQCNConfig) {
	for _, m := range n.Machines {
		m.NIC.Stack().EnableDCQCN(cfg)
	}
}

// AttachCheckers attaches a protocol invariant checker to every
// machine's stack; call each checker's Finish after the run.
func (n *Net) AttachCheckers() []*chaos.Checker {
	cs := make([]*chaos.Checker, len(n.Machines))
	for i, m := range n.Machines {
		cs[i] = chaos.AttachChecker(m.NIC.Stack(), fmt.Sprintf("m%d", i), m.Eng)
	}
	return cs
}

// RecordJSONL registers every health surface with a JSONL recorder:
// each machine's NIC and NIC-side switch port on that machine's engine,
// and every switch port on the switch's engine (the shard that owns
// each surface scrapes it).
func (n *Net) RecordJSONL(rec *export.Recorder) {
	for i, m := range n.Machines {
		host := fmt.Sprintf("m%d", i)
		rec.Source(m.Eng, host, "port", "nic:"+host, m.NIC.Health)
		rec.Source(m.Eng, host, "port", fmt.Sprintf("uplink:%d", i), m.Port.Health)
	}
	for i := 0; i < n.Sw.NumPorts(); i++ {
		rec.Source(n.SwEng, "switch", "port", fmt.Sprintf("sw:%d", i), n.Sw.PortHealth(i))
	}
}

// Run executes the testbed to completion and returns the final
// simulated time.
func (n *Net) Run() sim.Time {
	if n.Group != nil {
		return n.Group.Run()
	}
	return n.SwEng.Run()
}
