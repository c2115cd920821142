package strom

import (
	"errors"
	"fmt"

	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/roce"
	"strom/internal/sim"
)

// Errors returned by cluster assembly.
var (
	ErrDuplicateMachine = errors.New("strom: machine name already used")
	ErrNotConnected     = errors.New("strom: machines not connected")
	// ErrTooManyMachines: a cluster numbers at most 254 machines.
	ErrTooManyMachines = core.ErrTooManyMachines
)

// Cluster is a set of simulated StRoM machines sharing one deterministic
// simulation clock.
type Cluster struct {
	eng      *sim.Engine
	machines map[string]*Machine
	nextQPN  uint32
}

// NewCluster creates an empty cluster with a deterministic seed.
func NewCluster(seed int64) *Cluster {
	return &Cluster{
		eng:      sim.NewEngine(seed),
		machines: make(map[string]*Machine),
		nextQPN:  1,
	}
}

// Machine is one host with a StRoM NIC.
type Machine struct {
	name    string
	cluster *Cluster
	nic     *core.NIC
	id      roce.Identity
	// wire is what the NIC transmits into: the *fabric.Link of its last
	// ConnectDirect or the *Switch of its last Attach; nil until wired.
	wire any
}

// AddMachine creates a machine with the given profile.
func (c *Cluster) AddMachine(name string, profile Profile) (*Machine, error) {
	if _, ok := c.machines[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateMachine, name)
	}
	id, err := core.MachineIdentity(len(c.machines) + 1)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		name:    name,
		cluster: c,
		nic:     core.NewNIC(c.eng, profile, id),
		id:      id,
	}
	c.machines[name] = m
	return m, nil
}

// QueuePair is a connected pair of queue pairs between two machines, the
// handle all one-sided and RPC verbs are posted on.
type QueuePair struct {
	A, B       *Machine
	QPNA, QPNB uint32
}

// ConnectDirect wires two machines with a direct cable (the paper's
// testbed topology) and creates one connected queue pair, returned for
// issuing operations from either side.
func (c *Cluster) ConnectDirect(a, b *Machine, cable Cable) (*QueuePair, error) {
	if err := c.owns(a, b); err != nil {
		return nil, err
	}
	link := fabric.NewLink(c.eng, cable, a.nic, b.nic)
	a.nic.SetTransmit(link.SendFromA)
	b.nic.SetTransmit(link.SendFromB)
	a.wire, b.wire = link, link
	return c.CreateQueuePair(a, b)
}

// owns rejects a machine of another cluster.
func (c *Cluster) owns(ms ...*Machine) error {
	for _, m := range ms {
		if m.cluster != c {
			return fmt.Errorf("%w: %s belongs to another cluster", ErrNotConnected, m.name)
		}
	}
	return nil
}

// Switch is a store-and-forward Ethernet switch for topologies beyond
// the paper's two directly-connected machines (e.g. multi-node
// shuffles): a shared-buffer output-queued model with optional PFC
// pause/resume and ECN marking (see internal/fabric/switch.go).
type Switch struct {
	sw *fabric.Switch
}

// SwitchConfig re-exports the full switch configuration (shared buffer
// pool, PFC pause watermark, ECN threshold) for AddSwitchCfg.
type SwitchConfig = fabric.SwitchConfig

// AddSwitch creates a switch whose ports run at the cable's bandwidth
// and add the given forwarding delay per frame: unbounded buffering, no
// PFC, no ECN — lossless.
func (c *Cluster) AddSwitch(cable Cable, forwarding Duration) *Switch {
	return c.AddSwitchCfg(SwitchConfig{Link: cable, Forwarding: forwarding})
}

// AddSwitchCfg creates a switch from a full SwitchConfig, enabling the
// shared-buffer pool, PFC and ECN.
func (c *Cluster) AddSwitchCfg(cfg SwitchConfig) *Switch {
	return &Switch{sw: fabric.NewSwitchCfg(c.eng, cfg)}
}

// Attach connects a machine to the switch.
func (s *Switch) Attach(m *Machine) {
	port := s.sw.AttachPortOn(m.nic.Engine(), m.id.MAC, m.nic)
	m.nic.SetTransmit(port.Send)
	m.wire = s
}

// Dropped reports frames the switch discarded at the port attached to a
// machine; a discard is counted where the frame came in.
func (s *Switch) Dropped(m *Machine) uint64 { return s.sw.Dropped(m.id.MAC) }

// Fabric exposes the underlying fabric switch (port counters, health
// scrapes).
func (s *Switch) Fabric() *fabric.Switch { return s.sw }

// CreateQueuePair connects one more QP pair between already-linked
// machines: both must belong to c and share a cable or a switch, or it
// returns an error wrapping ErrNotConnected.
func (c *Cluster) CreateQueuePair(a, b *Machine) (*QueuePair, error) {
	if err := c.owns(a, b); err != nil {
		return nil, err
	}
	if a.wire == nil || a.wire != b.wire {
		return nil, fmt.Errorf("%w: %s and %s share no cable or switch", ErrNotConnected, a.name, b.name)
	}
	qpa := c.nextQPN
	c.nextQPN++
	qpb := c.nextQPN
	c.nextQPN++
	if err := a.nic.CreateQP(qpa, b.id, qpb); err != nil {
		return nil, err
	}
	if err := b.nic.CreateQP(qpb, a.id, qpa); err != nil {
		return nil, err
	}
	return &QueuePair{A: a, B: b, QPNA: qpa, QPNB: qpb}, nil
}

// Go starts a simulated host process (application code).
func (c *Cluster) Go(name string, fn func(p *Process)) { c.eng.Go(name, fn) }

// Run executes the simulation until no events remain; it returns the
// final simulated time.
func (c *Cluster) Run() Time { return c.eng.Run() }

// RunFor executes the simulation up to a deadline.
func (c *Cluster) RunFor(d Duration) Time { return c.eng.RunUntil(Time(d)) }

// Now returns the current simulated time.
func (c *Cluster) Now() Time { return c.eng.Now() }

// Engine exposes the simulation engine for advanced scheduling.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// --- Machine surface --------------------------------------------------------

// Name returns the machine's name.
func (m *Machine) Name() string { return m.name }

// NIC exposes the underlying NIC (stats, advanced use).
func (m *Machine) NIC() *NIC { return m.nic }

// EnableDCQCN turns the DCQCN congestion-control loop on for this
// machine's NIC with the default tuning: the stack reflects CNPs for
// CE-marked deliveries (switch ECN marks) and rate-limits its senders
// in response. Off by default, in which case the stack's behaviour is
// byte-identical to the pre-DCQCN protocol engine.
func (m *Machine) EnableDCQCN() { m.nic.Stack().EnableDCQCN(roce.DefaultDCQCN()) }

// Memory exposes the machine's host memory.
func (m *Machine) Memory() *Memory { return &Memory{m: m} }

// AllocBuffer allocates pinned host memory registered with the NIC's TLB.
func (m *Machine) AllocBuffer(size int) (*Buffer, error) { return m.nic.AllocBuffer(size) }

// DeployKernel binds a kernel to an RPC op-code on this machine's NIC.
func (m *Machine) DeployKernel(rpcOp uint64, k Kernel) error { return m.nic.DeployKernel(rpcOp, k) }

// SetRPCFallback installs the host-CPU fallback for unmatched RPCs.
func (m *Machine) SetRPCFallback(fn func(qpn uint32, rpcOp uint64, params []byte)) {
	m.nic.SetFallback(fn)
}

// Host returns the machine's CPU cost model (polling, software
// baselines).
func (m *Machine) Host() HostCPU { return m.nic.Host() }

// InvokeLocal posts an RPC to the machine's own NIC (§5.2).
func (m *Machine) InvokeLocal(rpcOp uint64, qpn uint32, params []byte, done func(error)) {
	m.nic.InvokeLocal(rpcOp, qpn, params, done)
}

// InvokeLocalSync is InvokeLocal blocking the calling process.
func (m *Machine) InvokeLocalSync(p *Process, rpcOp uint64, qpn uint32, params []byte) error {
	var done sim.Completion[error] // resolves with the kernel's error as its value
	m.nic.InvokeLocal(rpcOp, qpn, params, done.Complete)
	err, _ := done.Wait(p)
	return err
}

// StreamLocalSync runs n bytes of local memory through a locally deployed
// kernel as a send-side bump-in-the-wire (§3.5's send kernels), blocking
// until the data has been handed to the kernel.
func (m *Machine) StreamLocalSync(p *Process, rpcOp uint64, qpn uint32, localVA uint64, n int) error {
	var done sim.Completion[error]
	m.nic.StreamLocal(rpcOp, qpn, localVA, n, done.Complete)
	err, _ := done.Wait(p)
	return err
}

// Memory is a convenience view of a machine's DRAM.
type Memory struct{ m *Machine }

// WriteVirt stores bytes at a virtual address (a CPU store).
func (mem *Memory) WriteVirt(va Addr, data []byte) error {
	return mem.m.nic.Memory().WriteVirt(va, data)
}

// ReadVirt loads bytes from a virtual address (a CPU load).
func (mem *Memory) ReadVirt(va Addr, n int) ([]byte, error) {
	return mem.m.nic.Memory().ReadVirt(va, n)
}

// PollNonZero spins until the byte at va becomes non-zero (the RDMA
// completion idiom of §6.1).
func (mem *Memory) PollNonZero(p *Process, va Addr) error {
	return mem.m.nic.Host().PollNonZero(p, mem.m.nic.Memory(), va, 0)
}

// PollNonZeroWord spins until the 8-byte little-endian word at va becomes
// non-zero and returns it — for completion words that carry a count whose
// low byte may legitimately be zero.
func (mem *Memory) PollNonZeroWord(p *Process, va Addr) (uint64, error) {
	return mem.m.nic.Host().PollWord(p, mem.m.nic.Memory(), va, func(w uint64) bool { return w != 0 }, 0)
}

// --- QueuePair verbs ---------------------------------------------------------

// Verb is one work request: the verb (Op), its addresses and length or
// RPC op-code and parameters, and the two optional fields RKey (zero:
// the key installed with SetRemoteKey) and Deadline (absolute simulated
// time; zero: none). A verb not acknowledged by its deadline completes
// with an error wrapping ErrDeadlineExceeded.
type Verb = core.Verb

// The four verbs of the host interface (§5.1, Listing 5).
const (
	OpWrite    = core.OpWrite
	OpRead     = core.OpRead
	OpRPC      = core.OpRPC
	OpRPCWrite = core.OpRPCWrite
)

// ErrUnknownOp completes a Verb whose Op is none of the four.
var ErrUnknownOp = core.ErrUnknownOp

// Post issues v from A toward B; done fires once, on acknowledgement
// or failure.
func (qp *QueuePair) Post(v Verb, done func(error)) { qp.A.nic.Post(qp.QPNA, v, done) }

// Do is Post blocking the calling process. The eight methods below are
// Do and Post with the QP's key and no deadline.
func (qp *QueuePair) Do(p *Process, v Verb) error { return qp.A.nic.Do(p, qp.QPNA, v) }

// WriteSync issues an RDMA WRITE from A's local memory to B's remote
// memory and blocks the process until the remote NIC acknowledges.
func (qp *QueuePair) WriteSync(p *Process, localVA, remoteVA uint64, n int) error {
	return qp.A.nic.WriteSync(p, qp.QPNA, localVA, remoteVA, n)
}

// ReadSync issues an RDMA READ of B's memory into A's memory and blocks
// until the data is visible locally.
func (qp *QueuePair) ReadSync(p *Process, remoteVA, localVA uint64, n int) error {
	return qp.A.nic.ReadSync(p, qp.QPNA, remoteVA, localVA, n)
}

// RPCSync invokes a kernel on B's NIC (Listing 5's postRpc) and blocks
// until the request is acknowledged (the kernel's response, if any,
// arrives later via RDMA write into A's memory).
func (qp *QueuePair) RPCSync(p *Process, rpcOp uint64, params []byte) error {
	return qp.A.nic.RPCSync(p, qp.QPNA, rpcOp, params)
}

// RPCWriteSync streams n bytes of A's memory through the kernel on B's
// NIC (Listing 5's postRpcWrite).
func (qp *QueuePair) RPCWriteSync(p *Process, rpcOp uint64, localVA uint64, n int) error {
	return qp.A.nic.RPCWriteSync(p, qp.QPNA, rpcOp, localVA, n)
}

// PostWrite is the asynchronous WRITE; done fires on acknowledgement.
func (qp *QueuePair) PostWrite(localVA, remoteVA uint64, n int, done func(error)) {
	qp.A.nic.PostWrite(qp.QPNA, localVA, remoteVA, n, done)
}

// PostRead is the asynchronous READ.
func (qp *QueuePair) PostRead(remoteVA, localVA uint64, n int, done func(error)) {
	qp.A.nic.PostRead(qp.QPNA, remoteVA, localVA, n, done)
}

// PostRPC is the asynchronous RPC.
func (qp *QueuePair) PostRPC(rpcOp uint64, params []byte, done func(error)) {
	qp.A.nic.PostRPC(qp.QPNA, rpcOp, params, done)
}

// PostRPCWrite is the asynchronous RPC WRITE.
func (qp *QueuePair) PostRPCWrite(rpcOp uint64, localVA uint64, n int, done func(error)) {
	qp.A.nic.PostRPCWrite(qp.QPNA, rpcOp, localVA, n, done)
}

// Reverse returns the same connection viewed from B (for issuing
// operations in the other direction).
func (qp *QueuePair) Reverse() *QueuePair {
	return &QueuePair{A: qp.B, B: qp.A, QPNA: qp.QPNB, QPNB: qp.QPNA}
}
