package core

import (
	"errors"
	"fmt"

	"strom/internal/arp"
	"strom/internal/cpu"
	"strom/internal/fpga"
	"strom/internal/hostmem"
	"strom/internal/mr"
	"strom/internal/packet"
	"strom/internal/pcie"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/tlb"
)

// Errors returned by the NIC.
var (
	ErrNoKernel       = errors.New("strom: no kernel matches RPC op-code")
	ErrKernelDeployed = errors.New("strom: RPC op-code already bound")
	ErrNotRegistered  = errors.New("strom: address range not registered with the NIC")
	// ErrTooManyMachines reports a testbed asking for more machines than
	// its 10.0.0.0/24 can number.
	ErrTooManyMachines = errors.New("strom: more than 254 machines")
)

// MaxMachines is the most machines one testbed can number.
const MaxMachines = 254

// MachineIdentity returns the identity of a testbed's i-th machine,
// counting from 1: MAC 02:00:00:00:00:i, IP 10.0.0.i.
func MachineIdentity(i int) (roce.Identity, error) {
	if i < 1 || i > MaxMachines {
		return roce.Identity{}, fmt.Errorf("%w: no identity for machine %d", ErrTooManyMachines, i)
	}
	return roce.Identity{
		MAC: packet.MAC{2, 0, 0, 0, 0, byte(i)},
		IP:  packet.AddrOf(10, 0, 0, byte(i)),
	}, nil
}

// kernelPipelineCycles is the latency a kernel adds on the data path —
// "negligible latency while not impacting throughput" (§3.2).
const kernelPipelineCycles = 6

// memoryPages is a machine's host DRAM capacity in 2 MB huge pages.
const memoryPages = 2048

// Config assembles the component configurations of one machine: NIC
// clocking, host interconnect and host CPU.
type Config struct {
	Roce roce.Config
	PCIe pcie.Config
	Host cpu.Model
}

// Profile10G is the paper's 10 G testbed machine (§6.1).
func Profile10G() Config {
	return Config{Roce: roce.Config10G(), PCIe: pcie.Gen3x8(), Host: cpu.Platform10G()}
}

// Profile100G is the paper's 100 G testbed machine (§7).
func Profile100G() Config {
	return Config{Roce: roce.Config100G(), PCIe: pcie.Gen3x16(), Host: cpu.Platform100G()}
}

// NICStats counts StRoM-layer activity.
type NICStats struct {
	Doorbells        uint64
	RPCsDispatched   uint64
	RPCsFallback     uint64
	RPCsUnmatched    uint64
	StreamSegments   uint64
	KernelDMAReads   uint64
	KernelDMAWrites  uint64
	KernelRDMAWrites uint64
	// Crash bookkeeping (see crash.go).
	Crashes           uint64
	Restarts          uint64
	FramesDroppedDown uint64 // frames arriving while crashed
	KernelAborts      uint64 // kernel FSM continuations dropped by a crash
	// Memory protection (see protect.go).
	KernelMRFaults uint64 // kernel DMA commands rejected by the MR table
}

// RPCFallback is the optional host-CPU fallback for unmatched RPC
// op-codes ("if configured a priori by the remote CPU", §5.1).
type RPCFallback func(qpn uint32, rpcOp uint64, params []byte)

// deployment binds a kernel to its per-NIC context.
type deployment struct {
	kernel Kernel
	ctx    *Context
}

// NIC is one StRoM machine: FPGA NIC (RoCE stack + TLB + DMA + kernels)
// plus its host memory and CPU model.
type NIC struct {
	eng      *sim.Engine
	cfg      Config
	mem      *hostmem.Memory
	tlb      *tlb.TLB
	dma      *pcie.Engine
	stack    *roce.Stack
	arp      *arp.Module
	transmit func([]byte)

	kernels  map[uint64]*deployment
	fallback RPCFallback
	// Host commands cross the doorbell's MMIO path one at a time and
	// reach the NIC through the commands backlog (DESIGN.md §1.3).
	doorbell *sim.Serializer
	commands *sim.Backlog[func()]
	stats    NICStats
	// writeLanded is onWriteLanded as a func value, made once.
	writeLanded func(error)
	verbFree    []*verb       // recycled verb records (see verb)
	tel         *nicTelemetry // nil when telemetry is disabled
	health      nicHealth     // Health's reused report

	// pipe is the kernel pipeline: see kernelInput.
	pipe *sim.Backlog[kernelInput]

	// Memory protection (see protect.go): the region table the responder
	// validates RETHs against, the per-buffer region index, the DMA-issue
	// observer (invariant checking) and the validation-skip debug fault.
	mrt     *mr.Table
	regions map[uint64]*mr.Region // buffer base VA -> region
	dmaObs  func(need mr.Access, va uint64, nbytes int)
	dbg     DebugFaults

	// Crash state (see crash.go). epoch increments on every Crash and
	// Restart; kernel continuations capture it and abort when it moves.
	crashed bool
	epoch   uint64
}

// NewNIC builds a machine with the given identity. Call SetTransmit (or
// wire it through a fabric.Link using the NIC as an Endpoint) before
// posting operations.
func NewNIC(eng *sim.Engine, cfg Config, id roce.Identity) *NIC {
	n := &NIC{
		eng:      eng,
		cfg:      cfg,
		mem:      hostmem.New(memoryPages),
		tlb:      tlb.New(0),
		kernels:  make(map[uint64]*deployment),
		doorbell: sim.NewSerializer(eng),
		mrt:      mr.NewTable(),
		regions:  make(map[uint64]*mr.Region),
	}
	n.writeLanded = n.onWriteLanded
	n.commands = sim.NewBacklog(eng, func(cmd func()) { cmd() })
	n.pipe = sim.NewBacklog(eng, n.runKernelInput)
	n.dma = pcie.NewEngine(eng, n.mem, n.tlb, cfg.PCIe)
	// A crashed NIC puts nothing on the wire: frames already queued in
	// the TX pipeline die at the port, which owns them and so returns
	// them to the pool.
	send := func(f []byte) {
		if n.crashed {
			packet.PutBuf(f)
			return
		}
		n.transmit(f)
	}
	n.stack = roce.NewStack(eng, cfg.Roce, id, n, send)
	n.arp = arp.New(eng, id.MAC, id.IP, send, 0)
	return n
}

// SetTransmit wires the NIC's Ethernet port into a fabric. fn takes the
// frame over: the NIC never touches it again, and whoever ends its
// journey returns it to packet's pool.
func (n *NIC) SetTransmit(fn func([]byte)) { n.transmit = fn }

// DeliverFrame implements fabric.Endpoint: ARP frames go to the ARP
// module, everything else to the RoCE stack (§4.1). The NIC owns the
// delivered frame; ARP frames are fully consumed here and recycled,
// RoCE frames are recycled by the stack after RX processing.
func (n *NIC) DeliverFrame(frame []byte) {
	if n.crashed {
		n.stats.FramesDroppedDown++
		packet.PutBuf(frame)
		return
	}
	if arp.IsARPFrame(frame) {
		if err := n.arp.HandleFrame(frame); err != nil {
			n.logf("arp", "nic: arp: %v", err)
		}
		packet.PutBuf(frame)
		return
	}
	n.stack.DeliverFrame(frame)
}

// ARP exposes the address-resolution module.
func (n *NIC) ARP() *arp.Module { return n.arp }

// ResolveMAC resolves a peer's MAC over the wire, blocking the process.
func (n *NIC) ResolveMAC(p *sim.Process, ip packet.IPv4) (packet.MAC, error) {
	return n.arp.Resolve(p, ip)
}

// Engine returns the simulation engine.
func (n *NIC) Engine() *sim.Engine { return n.eng }

// Memory returns the host memory.
func (n *NIC) Memory() *hostmem.Memory { return n.mem }

// DMA returns the DMA engine (visible for stats and tests).
func (n *NIC) DMA() *pcie.Engine { return n.dma }

// Stack returns the RoCE stack (visible for stats and tests).
func (n *NIC) Stack() *roce.Stack { return n.stack }

// Config returns the machine configuration.
func (n *NIC) Config() Config { return n.cfg }

// Host returns the host CPU model.
func (n *NIC) Host() cpu.Model { return n.cfg.Host }

// Stats returns a snapshot of the StRoM-layer counters.
func (n *NIC) Stats() NICStats { return n.stats }

// Identity returns the NIC's network identity.
func (n *NIC) Identity() roce.Identity { return n.stack.Identity() }

// CreateQP connects a local queue pair to a remote one.
func (n *NIC) CreateQP(qpn uint32, remote roce.Identity, remoteQPN uint32) error {
	return n.stack.CreateQP(qpn, remote, remoteQPN)
}

// AllocBuffer allocates pinned host memory and registers it with the
// NIC's TLB (the driver path of §4.3: pin every page, return physical
// addresses, populate the TLB once).
func (n *NIC) AllocBuffer(size int) (*hostmem.Buffer, error) {
	return n.AllocBufferFlags(size, mr.AccessFull)
}

// RegisterMemory populates the TLB for an already-allocated buffer and
// registers it as a full-access memory region (use RegisterMemoryFlags to
// restrict the access rights).
func (n *NIC) RegisterMemory(buf *hostmem.Buffer) error {
	return n.RegisterMemoryFlags(buf, mr.AccessFull)
}

// DeployKernel binds a kernel to an RPC op-code; incoming RPCs are
// matched against deployed kernels by this code (§5.1, the Portals-style
// matching enabling multi-kernel deployments).
func (n *NIC) DeployKernel(rpcOp uint64, k Kernel) error {
	if _, ok := n.kernels[rpcOp]; ok {
		return fmt.Errorf("%w: %#x", ErrKernelDeployed, rpcOp)
	}
	n.kernels[rpcOp] = &deployment{
		kernel: k,
		ctx:    &Context{nic: n, name: k.Name(), cycle: n.cfg.Roce.Cycle()},
	}
	return nil
}

// SetFallback installs the host-CPU fallback for unmatched RPCs.
func (n *NIC) SetFallback(f RPCFallback) { n.fallback = f }

// KernelResources sums the footprints of all deployed kernels.
func (n *NIC) KernelResources() fpga.Resources {
	var r fpga.Resources
	for _, d := range n.kernels {
		r = r.Add(d.kernel.Resources())
	}
	return r
}

// --- responder side: roce.Handler ------------------------------------------

// HandleWrite implements the direct RoCE→DMA path for plain RDMA WRITEs;
// kernels are not involved (§5.2: the existing direct data path remains).
// The stack already validated the RETH (ValidateRemote), so the DMA here
// targets registered memory — the observer hook re-checks that invariant.
// The DMA command takes the received frame and writes the payload out of
// it (DESIGN.md §2.2).
func (n *NIC) HandleWrite(qpn uint32, va uint64, data []byte, last bool) {
	n.observeDMA(mr.AccessRemoteWrite, va, len(data))
	n.dma.WriteHostFrame(hostmem.Addr(va), data, n.stack.TakeRxFrame(), n.writeLanded)
}

// takeRx returns received payload held for the kernel pipeline and the
// pooled buffer it lies in: the received frame, taken from the stack, or
// a pooled copy when the stack is not receiving one.
func (n *NIC) takeRx(data []byte) (buf, frame []byte) {
	if f := n.stack.TakeRxFrame(); f != nil {
		return data, f
	}
	c := packet.CloneFrame(data)
	return c, c
}

// onWriteLanded is the completion of every responder-side WRITE DMA
// (bound once as n.writeLanded: this runs per packet). The requester
// was acknowledged when the packet arrived; a failure can only be
// logged.
func (n *NIC) onWriteLanded(err error) {
	if err != nil {
		n.logf("dma-fail", "nic: write DMA failed: %v", err)
	}
}

// HandleReadRequest implements the direct DMA→RoCE path for RDMA READs,
// cut-through: one DMA command, delivered to the stack an MTU payload at
// a time as the bytes cross PCIe, so the first response frame leaves
// while the rest of the data is still in host memory. Each chunk is
// borrowed from the DMA engine: the stack has encoded its frame when
// deliver returns.
func (n *NIC) HandleReadRequest(qpn uint32, va uint64, nbytes int, deliver func([]byte, error)) {
	n.observeDMA(mr.AccessRemoteRead, va, nbytes)
	n.dma.ReadHostStream(hostmem.Addr(va), nbytes, n.cfg.Roce.MTUPayload, deliver)
}

// HandleRPCParams matches the RPC op-code against deployed kernels and
// invokes the winner after the kernel pipeline delay. With no match, the
// configured CPU fallback runs (charged host latency), or the request is
// NAKed so an error code reaches the requester (§5.1).
func (n *NIC) HandleRPCParams(qpn uint32, rpcOp uint64, params []byte) error {
	if d, ok := n.kernels[rpcOp]; ok {
		n.stats.RPCsDispatched++
		d.ctx.State(qpn, "INVOKE")
		buf, frame := n.takeRx(params)
		n.enterPipeline(kernelInput{d: d, qpn: qpn, buf: buf, frame: frame, invoke: true})
		return nil
	}
	if n.fallback != nil {
		n.stats.RPCsFallback++
		p := append([]byte(nil), params...)
		// The fallback crosses PCIe to the host and waits for a core to
		// pick the request up.
		n.eng.Schedule(n.cfg.PCIe.WriteLatency+n.cfg.Host.PollInterval, func() {
			n.fallback(qpn, rpcOp, p)
		})
		return nil
	}
	n.stats.RPCsUnmatched++
	return fmt.Errorf("%w: %#x", ErrNoKernel, rpcOp)
}

// HandleRPCWrite streams RPC WRITE payload into the matched kernel.
func (n *NIC) HandleRPCWrite(qpn uint32, rpcOp uint64, data []byte, last bool) error {
	d, ok := n.kernels[rpcOp]
	if !ok {
		n.stats.RPCsUnmatched++
		return fmt.Errorf("%w: %#x", ErrNoKernel, rpcOp)
	}
	n.stats.StreamSegments++
	buf, frame := n.takeRx(data)
	n.enterPipeline(kernelInput{d: d, qpn: qpn, buf: buf, frame: frame, last: last})
	return nil
}

// kernelInput is one input in the kernel pipeline, a parameter block
// (Invoke, remote or InvokeLocal's) or an RPC WRITE segment (Stream), with
// the crash epoch it entered under. The input waits in a pooled buffer
// the pipeline owns — the received frame, or InvokeLocal's copy of the
// caller's parameters — which the kernel may not keep (see Kernel).
type kernelInput struct {
	d      *deployment
	qpn    uint32
	buf    []byte // the input, inside frame
	frame  []byte // the pooled buffer, returned when the input leaves
	invoke bool
	last   bool
	done   func(error) // InvokeLocal's completion; may be nil
	epoch  uint64
}

// enterPipeline queues in behind every input before it: all wait the
// same kernelPipelineCycles, so they leave the backlog in arrival order
// (DESIGN.md §1.3) and no input allocates a closure.
func (n *NIC) enterPipeline(in kernelInput) {
	in.epoch = n.epoch
	n.pipe.PushAt(n.eng.Now().Add(n.cfg.Roce.Cycles(kernelPipelineCycles)), in)
}

// runKernelInput hands an input leaving the pipeline to its kernel,
// unless the NIC crashed since it was queued, and recycles its frame
// either way.
func (n *NIC) runKernelInput(in kernelInput) {
	var err error
	switch {
	case n.epoch != in.epoch:
		n.stats.KernelAborts++
		err = ErrMachineDown
	case in.invoke:
		in.d.kernel.Invoke(in.d.ctx, in.qpn, in.buf)
	default:
		in.d.kernel.Stream(in.d.ctx, in.qpn, in.buf, in.last)
	}
	packet.PutBuf(in.frame)
	if in.done != nil {
		in.done(err)
	}
}

// --- requester side: host verbs --------------------------------------------

// ringDoorbell models the host issuing one command to the NIC: a single
// memory-mapped AVX2 store, rate-limited by the I/O subsystem (§7.1).
func (n *NIC) ringDoorbell(fn func()) {
	n.stats.Doorbells++
	end := n.doorbell.Reserve(n.cfg.Host.DoorbellInterval)
	n.commands.PushAt(end.Add(n.cfg.PCIe.MMIOWriteLatency), fn)
}

// InvokeLocal posts an RPC to the local NIC ("StRoM kernels can also be
// invoked by the local host by posting an RPC to the local network card",
// §5.2). The kernel runs on this NIC with qpn naming the QP it may
// respond over.
func (n *NIC) InvokeLocal(rpcOp uint64, qpn uint32, params []byte, done func(error)) {
	p := packet.CloneFrame(params)
	n.ringDoorbell(func() {
		if n.crashed {
			packet.PutBuf(p)
			n.completeErr(done, ErrMachineDown)
			return
		}
		d, ok := n.kernels[rpcOp]
		if !ok {
			packet.PutBuf(p)
			n.completeErr(done, fmt.Errorf("%w: %#x", ErrNoKernel, rpcOp))
			return
		}
		n.stats.RPCsDispatched++
		n.enterPipeline(kernelInput{d: d, qpn: qpn, buf: p, frame: p, invoke: true, done: done})
	})
}

// StreamLocal runs local data through a kernel as a send-side
// bump-in-the-wire: payload is DMA-fetched and streamed segment by
// segment (a send kernel, §3.5), each as it arrives over PCIe and
// borrowed from the DMA engine like any Kernel.Stream data.
func (n *NIC) StreamLocal(rpcOp uint64, qpn uint32, localVA uint64, nbytes int, done func(error)) {
	n.ringDoorbell(func() {
		if n.crashed {
			n.completeErr(done, ErrMachineDown)
			return
		}
		d, ok := n.kernels[rpcOp]
		if !ok {
			n.completeErr(done, fmt.Errorf("%w: %#x", ErrNoKernel, rpcOp))
			return
		}
		n.observeDMA(mr.AccessLocal, localVA, nbytes)
		got := 0
		n.dma.ReadHostStream(hostmem.Addr(localVA), nbytes, n.cfg.Roce.MTUPayload, func(chunk []byte, err error) {
			if err != nil {
				n.completeErr(done, err)
				return
			}
			got += len(chunk)
			last := got == nbytes
			n.stats.StreamSegments++
			d.kernel.Stream(d.ctx, qpn, chunk, last)
			if last && done != nil {
				done(nil)
			}
		})
	})
}

func (n *NIC) completeErr(done func(error), err error) {
	if done != nil {
		done(err)
	} else {
		n.logf("dropped-error", "nic: dropped error (no completion): %v", err)
	}
}
