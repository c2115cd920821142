// Package core implements StRoM itself: the programmable-kernel framework
// that sits on the data path between the RoCE stack and the DMA engine
// (Figure 1), the strictly defined kernel interface of Listing 1, the RPC
// op-code matching of §5.1, and the NIC assembly that ties the stack,
// TLB, DMA engine and Controller together.
package core

import (
	"encoding/binary"
	"fmt"

	"strom/internal/fpga"
	"strom/internal/hostmem"
	"strom/internal/mr"
	"strom/internal/roce"
	"strom/internal/sim"
)

// Kernel is the Go analogue of the Listing 1 HLS interface. The eight
// hardware streams map as follows:
//
//	qpnIn, paramIn    -> Invoke(ctx, qpn, params)
//	roceDataIn        -> Stream(ctx, qpn, data, last)
//	dmaCmdOut/dmaDataIn/dmaDataOut -> ctx.DMARead / ctx.DMAWrite
//	roceMetaOut/roceDataOut        -> ctx.RDMAWrite
//
// Kernels must consume their input at line rate (initiation interval 1,
// §3.4); the framework models their latency as a short pipeline and their
// occupancy through the Context's DMA and RDMA paths.
type Kernel interface {
	// Name identifies the kernel in traces and reports.
	Name() string
	// Invoke handles an RDMA RPC Params message addressed to this kernel.
	// params is only valid during the call, like Stream's data: a kernel
	// decodes what it needs before it returns.
	Invoke(ctx *Context, qpn uint32, params []byte)
	// Stream consumes one RDMA RPC WRITE payload segment. data is only
	// valid during the call: a kernel that needs it later copies it
	// (Context.DMAWrite and Context.RDMAWrite copy before they return).
	Stream(ctx *Context, qpn uint32, data []byte, last bool)
	// Resources estimates the kernel's FPGA footprint, used by the
	// resource report alongside the base NIC usage.
	Resources() fpga.Resources
}

// Context is a kernel's window onto its NIC: the DMA command interface,
// the RoCE transmit interface, and pipeline-time scheduling. A Context is
// created per deployment and shared by that kernel's invocations.
type Context struct {
	nic   *NIC
	name  string
	cycle sim.Duration

	// Telemetry state (zero / unused when telemetry is disabled): the
	// deployment's trace lane and its in-flight DMA command count, the
	// occupancy signal sampled by probes.
	tid      uint32
	inflight int

	freeOps []*dmaOp // recycled DMA completion guards
	resp    []byte   // response staging (see Respond)
}

// dmaOp is the guard around one kernel DMA completion: it settles the
// in-flight count and drops the completion if the machine crashed while
// the command was in flight (epoch guard), so the kernel FSM aborts
// instead of resuming on a powered-off device. The DMA engine calls a
// completion exactly once, which returns the record to its Context; the
// callbacks are bound once per record, so a command allocates no closure.
type dmaOp struct {
	c       *Context
	epoch   uint64
	read    func([]byte, error)
	write   func(error)
	readFn  func([]byte, error)
	writeFn func(error)
}

func (c *Context) newOp() *dmaOp {
	c.inflight++
	if n := len(c.freeOps); n > 0 {
		op := c.freeOps[n-1]
		c.freeOps = c.freeOps[:n-1]
		op.epoch = c.nic.epoch
		return op
	}
	op := &dmaOp{c: c, epoch: c.nic.epoch}
	op.readFn, op.writeFn = op.readDone, op.writeDone
	return op
}

// settle recycles the record and reports whether the completion is still
// wanted.
func (op *dmaOp) settle() bool {
	c := op.c
	op.read, op.write = nil, nil
	c.freeOps = append(c.freeOps, op)
	c.inflight--
	if c.nic.epoch != op.epoch {
		c.nic.stats.KernelAborts++
		return false
	}
	return true
}

func (op *dmaOp) readDone(data []byte, err error) {
	if done := op.read; op.settle() {
		done(data, err)
	}
}

func (op *dmaOp) writeDone(err error) {
	if done := op.write; op.settle() && done != nil {
		done(err)
	}
}

// Engine exposes the simulation engine (for kernels that keep timers).
func (c *Context) Engine() *sim.Engine { return c.nic.eng }

// Config returns the RoCE configuration of the hosting NIC.
func (c *Context) Config() roce.Config { return c.nic.cfg.Roce }

// MTUPayload returns the per-packet payload limit for RDMA writes.
func (c *Context) MTUPayload() int { return c.nic.cfg.Roce.MTUPayload }

// Delay schedules fn after n kernel pipeline cycles. The continuation is
// epoch-guarded: if the machine crashes before it fires, the kernel FSM
// aborts instead of resuming on a powered-off device.
func (c *Context) Delay(cycles int, fn func()) {
	epoch := c.nic.epoch
	c.nic.eng.Schedule(sim.Duration(cycles)*c.cycle, func() {
		if c.nic.epoch != epoch {
			c.nic.stats.KernelAborts++
			return
		}
		fn()
	})
}

// DMARead issues a read of host memory over the dmaCmdOut/dmaDataIn
// streams: a PCIe round trip of roughly 1.5 µs (§6.2). The command is
// sandboxed against the MR table first — a kernel chasing a pointer out
// of registered memory gets a typed mr.ErrAccess completion, never a DMA.
// If the machine crashes while the command is in flight, the completion
// is dropped and the kernel FSM aborts (epoch guard). The data is the DMA
// engine's staging buffer, valid only until done returns: a kernel is a
// streaming pipeline and passes it on (RDMAWrite and DMAWrite copy before
// they return) or copies what it keeps.
func (c *Context) DMARead(va uint64, n int, done func([]byte, error)) {
	if err := c.nic.checkKernelDMA(va, n); err != nil {
		c.Delay(1, func() { done(nil, err) }) // a cycle later, like an engine error
		return
	}
	c.nic.stats.KernelDMAReads++
	c.nic.observeDMA(mr.AccessKernel, va, n)
	op := c.newOp()
	op.read = done
	c.nic.dma.ReadHostBorrowed(hostmem.Addr(va), n, op.readFn)
}

// DMAWrite issues a write to host memory over dmaCmdOut/dmaDataOut,
// sandboxed like DMARead. The completion is epoch-guarded like DMARead's.
// data is copied before DMAWrite returns (pcie.Engine.WriteHost), so the
// kernel may refill its buffer at once.
func (c *Context) DMAWrite(va uint64, data []byte, done func(error)) {
	if err := c.nic.checkKernelDMA(va, len(data)); err != nil {
		c.Delay(1, func() {
			if done != nil {
				done(err)
			}
		})
		return
	}
	c.nic.stats.KernelDMAWrites++
	c.nic.observeDMA(mr.AccessKernel, va, len(data))
	op := c.newOp()
	op.write = done
	c.nic.dma.WriteHost(hostmem.Addr(va), data, op.writeFn)
}

// RDMAWrite transmits data to the remote memory of the peer connected on
// qpn, over the roceMetaOut/roceDataOut streams ("the metadata consists
// of the QPN, the target virtual address, and the length", §5.2).
func (c *Context) RDMAWrite(qpn uint32, remoteVA uint64, data []byte, done func(error)) {
	c.nic.stats.KernelRDMAWrites++
	if err := c.nic.stack.PostWrite(qpn, remoteVA, data, done); err != nil && done != nil {
		done(err)
	}
}

// Respond writes value, zero-padded to size bytes, then the 8 B status
// word to remoteVA on the peer connected on qpn: the response of the
// traversal, consistency and GET kernels. It stages both in one buffer
// per Context, which RDMAWrite has copied by the time it returns.
func (c *Context) Respond(qpn uint32, remoteVA uint64, value []byte, size int, status uint64) {
	if cap(c.resp) < size+8 {
		c.resp = make([]byte, size+8)
	}
	resp := c.resp[:size+8]
	clear(resp[copy(resp[:size], value):size])
	binary.LittleEndian.PutUint64(resp[size:], status)
	c.RDMAWrite(qpn, remoteVA, resp, nil)
}

// RDMARPC lets a kernel invoke a kernel on the peer NIC — the mechanism
// behind send-receive kernel combinations (§3.5).
func (c *Context) RDMARPC(qpn uint32, rpcOp uint64, params []byte, done func(error)) {
	if _, err := c.nic.stack.PostRPC(qpn, rpcOp, params, done); err != nil && done != nil {
		done(err)
	}
}

// Tracef logs into the NIC trace.
func (c *Context) Tracef(format string, args ...any) {
	c.nic.logf("kernel:"+c.name, "kernel[%s]: "+format, append([]any{c.name}, args...)...)
}

// State marks an FSM state transition of the kernel's data-flow pipeline
// on the kernel's trace lane — the software analogue of the per-block
// status registers a SmartNIC shell exposes. A single pointer compare
// when telemetry is disabled.
func (c *Context) State(qpn uint32, state string) {
	t := c.nic.tel
	if t == nil {
		return
	}
	t.tb.Instant(t.pid, c.tid, "kernel", state, fmt.Sprintf("%s qp=%d", c.name, qpn))
}
