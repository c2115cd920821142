package core

import (
	"errors"
	"fmt"

	"strom/internal/hostmem"
	"strom/internal/mr"
	"strom/internal/sim"
)

// Op names one of the host interface's four verbs (§5.1, Listing 5).
type Op uint8

// The verbs. The zero Op is not one: a Verb must say what it is.
const (
	OpWrite    Op = iota + 1 // RDMA WRITE of Len bytes, LocalVA -> RemoteVA
	OpRead                   // RDMA READ of Len bytes, RemoteVA -> LocalVA
	OpRPC                    // RDMA RPC: RPCOp and Params, all in the doorbell write (postRpc)
	OpRPCWrite               // RDMA RPC WRITE: Len bytes at LocalVA streamed to kernel RPCOp (postRpcWrite)
)

// ErrUnknownOp completes a Verb whose Op is none of the four.
var ErrUnknownOp = errors.New("strom: unknown verb op")

// Verb is one work request. RKey and Deadline are the two optional
// fields: zero means the QP's SetRemoteRKey key (the wildcard key when
// none was exchanged) and no deadline. Deadline is an absolute sim-time:
// a verb not acknowledged by then completes with an error wrapping
// sim.ErrDeadlineExceeded, whether it is stuck behind a stalled doorbell
// or DMA stage (the guard armed in withDeadline) or waiting for an ACK
// (the stack's own deadline event), while the frames already on the wire
// keep draining through go-back-N — cancellation decouples the caller
// from the transport without disturbing the PSN space.
type Verb struct {
	Op       Op
	LocalVA  uint64 // WRITE, RPC WRITE: payload source; READ: destination
	RemoteVA uint64 // WRITE, READ: the peer's address
	Len      int    // payload bytes (all but RPC)
	RPCOp    uint64 // RPC, RPC WRITE: the kernel's op-code
	Params   []byte // RPC: parameters; copied before Post returns
	RKey     uint32 // WRITE, READ: the remote region's key
	Deadline sim.Time
}

// Post rings the doorbell for v on qpn; done fires exactly once, with
// nil when the remote NIC has acknowledged (for a READ: when the last
// chunk is visible to a polling CPU).
func (n *NIC) Post(qpn uint32, v Verb, done func(error)) {
	switch v.Op {
	case OpWrite:
		n.postWrite(qpn, v.LocalVA, v.RemoteVA, v.RKey, v.Len, v.Deadline, done)
	case OpRead:
		n.postRead(qpn, v.RemoteVA, v.LocalVA, v.RKey, v.Len, v.Deadline, done)
	case OpRPC:
		n.postRPC(qpn, v.RPCOp, v.Params, v.Deadline, done)
	case OpRPCWrite:
		n.postRPCWrite(qpn, v.RPCOp, v.LocalVA, v.Len, v.Deadline, done)
	default:
		n.completeErr(done, fmt.Errorf("%w: %d", ErrUnknownOp, v.Op))
	}
}

// Do is Post blocking the calling process until the verb completes.
func (n *NIC) Do(p *sim.Process, qpn uint32, v Verb) error {
	c := &sim.Completion[struct{}]{}
	n.Post(qpn, v, func(err error) {
		if err != nil {
			c.Fail(err)
		} else {
			c.Complete(struct{}{})
		}
	})
	_, err := c.Wait(p)
	return err
}

// The paper's eight names: each verb with the QP's key and no deadline.
// The Post forms go straight to the positional implementations at the
// end of this file, as Post does — PostWrite and PostRead are the
// simulator's hottest entry points, and a doorbell closure over
// positional arguments is smaller than one over a Verb.

// PostWrite issues an RDMA WRITE of nbytes from local memory at localVA
// to the remote address remoteVA. The request handler fetches the payload
// over DMA and transmits each segment as it arrives (§4.1).
func (n *NIC) PostWrite(qpn uint32, localVA, remoteVA uint64, nbytes int, done func(error)) {
	n.postWrite(qpn, localVA, remoteVA, 0, nbytes, 0, done)
}

// PostRead issues an RDMA READ of nbytes from remoteVA into local memory
// at localVA. Response chunks are DMA-written as they arrive.
func (n *NIC) PostRead(qpn uint32, remoteVA, localVA uint64, nbytes int, done func(error)) {
	n.postRead(qpn, remoteVA, localVA, 0, nbytes, 0, done)
}

// PostRPC issues an RDMA RPC (Listing 5's postRpc).
func (n *NIC) PostRPC(qpn uint32, rpcOp uint64, params []byte, done func(error)) {
	n.postRPC(qpn, rpcOp, params, 0, done)
}

// PostRPCWrite issues an RDMA RPC WRITE (Listing 5's postRpcWrite).
func (n *NIC) PostRPCWrite(qpn uint32, rpcOp uint64, localVA uint64, nbytes int, done func(error)) {
	n.postRPCWrite(qpn, rpcOp, localVA, nbytes, 0, done)
}

// WriteSync performs PostWrite and blocks the calling process.
func (n *NIC) WriteSync(p *sim.Process, qpn uint32, localVA, remoteVA uint64, nbytes int) error {
	return n.Do(p, qpn, Verb{Op: OpWrite, LocalVA: localVA, RemoteVA: remoteVA, Len: nbytes})
}

// ReadSync performs PostRead and blocks the calling process.
func (n *NIC) ReadSync(p *sim.Process, qpn uint32, remoteVA, localVA uint64, nbytes int) error {
	return n.Do(p, qpn, Verb{Op: OpRead, LocalVA: localVA, RemoteVA: remoteVA, Len: nbytes})
}

// RPCSync performs PostRPC and blocks until the remote NIC acknowledges.
func (n *NIC) RPCSync(p *sim.Process, qpn uint32, rpcOp uint64, params []byte) error {
	return n.Do(p, qpn, Verb{Op: OpRPC, RPCOp: rpcOp, Params: params})
}

// RPCWriteSync performs PostRPCWrite and blocks until acknowledged.
func (n *NIC) RPCWriteSync(p *sim.Process, qpn uint32, rpcOp uint64, localVA uint64, nbytes int) error {
	return n.Do(p, qpn, Verb{Op: OpRPCWrite, RPCOp: rpcOp, LocalVA: localVA, Len: nbytes})
}

// withDeadline bounds a completion callback with an absolute sim-time
// deadline (zero disables): if done has not fired by then, it fires with
// an error wrapping sim.ErrDeadlineExceeded, and the late transport
// completion is swallowed. This NIC-level guard covers the doorbell and
// DMA stages that run before the stack's own deadline event exists, so a
// verb posted against a stalled interconnect still times out.
func (n *NIC) withDeadline(deadline sim.Time, done func(error)) func(error) {
	if deadline == 0 {
		return done
	}
	fired := false
	deliver := func(err error) {
		if fired {
			return
		}
		fired = true
		if done != nil {
			done(err)
		}
	}
	ev := n.eng.ScheduleAt(deadline, func() {
		deliver(fmt.Errorf("strom: verb canceled: %w", sim.ErrDeadlineExceeded))
	})
	return func(err error) {
		ev.Cancel()
		deliver(err)
	}
}

func (n *NIC) postWrite(qpn uint32, localVA, remoteVA uint64, rkey uint32, nbytes int, deadline sim.Time, done func(error)) {
	done = n.withDeadline(deadline, n.instrumentOp("WRITE", qpn, done))
	if n.crashed {
		n.completeErr(done, ErrMachineDown)
		return
	}
	n.ringDoorbell(func() {
		n.fetchPayload(false, qpn, localVA, remoteVA, rkey, nbytes, deadline, done)
	})
}

// postRead: done fires when the final chunk's DMA write has landed.
func (n *NIC) postRead(qpn uint32, remoteVA, localVA uint64, rkey uint32, nbytes int, deadline sim.Time, done func(error)) {
	done = n.withDeadline(deadline, n.instrumentOp("READ", qpn, done))
	if n.crashed {
		n.completeErr(done, ErrMachineDown)
		return
	}
	n.ringDoorbell(func() {
		sink := func(off int, chunk []byte, ack func()) {
			n.observeDMA(mr.AccessLocal, localVA+uint64(off), len(chunk))
			n.dma.WriteHost(hostmem.Addr(localVA)+hostmem.Addr(off), chunk, func(err error) {
				if err != nil {
					n.logf("dma-fail", "nic: read sink DMA failed: %v", err)
				}
				ack()
			})
		}
		if err := n.stack.PostRead(qpn, remoteVA, rkey, nbytes, deadline, sink, done); err != nil {
			n.completeErr(done, err)
		}
	})
}

func (n *NIC) postRPC(qpn uint32, rpcOp uint64, params []byte, deadline sim.Time, done func(error)) {
	done = n.withDeadline(deadline, n.instrumentOp("RPC", qpn, done))
	if n.crashed {
		n.completeErr(done, ErrMachineDown)
		return
	}
	p := append([]byte(nil), params...)
	n.ringDoorbell(func() {
		if err := n.stack.PostRPC(qpn, rpcOp, p, deadline, done); err != nil {
			n.completeErr(done, err)
		}
	})
}

func (n *NIC) postRPCWrite(qpn uint32, rpcOp uint64, localVA uint64, nbytes int, deadline sim.Time, done func(error)) {
	done = n.withDeadline(deadline, n.instrumentOp("RPC_WRITE", qpn, done))
	if n.crashed {
		n.completeErr(done, ErrMachineDown)
		return
	}
	n.ringDoorbell(func() {
		n.fetchPayload(true, qpn, localVA, rpcOp, 0, nbytes, deadline, done)
	})
}
