package core

import (
	"errors"
	"fmt"

	"strom/internal/hostmem"
	"strom/internal/mr"
	"strom/internal/packet"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/telemetry"
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
// sim.ErrDeadlineExceeded, wherever it is stuck — behind a stalled
// doorbell or DMA stage, or waiting for an ACK. The NIC's guard (see
// verb) is the verb's one timer: it tells the caller and expires the
// posted message (roce.Message.Expire), whose frames already on the wire
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
	if v.Op < OpWrite || v.Op > OpRPCWrite {
		n.completeErr(done, fmt.Errorf("%w: %d", ErrUnknownOp, v.Op))
		return
	}
	n.post(qpn, v, done, false)
}

// Do is Post blocking the calling process until the verb completes.
func (n *NIC) Do(p *sim.Process, qpn uint32, v Verb) error {
	if v.Op < OpWrite || v.Op > OpRPCWrite {
		return fmt.Errorf("%w: %d", ErrUnknownOp, v.Op)
	}
	r := n.post(qpn, v, nil, true)
	_, err := r.wait.Wait(p)
	r.release()
	return err
}

// The paper's eight names: each verb with the QP's key and no deadline.

// PostWrite issues an RDMA WRITE of nbytes from local memory at localVA
// to the remote address remoteVA. The request handler fetches the payload
// over DMA and transmits each segment as it arrives (§4.1).
func (n *NIC) PostWrite(qpn uint32, localVA, remoteVA uint64, nbytes int, done func(error)) {
	n.Post(qpn, Verb{Op: OpWrite, LocalVA: localVA, RemoteVA: remoteVA, Len: nbytes}, done)
}

// PostRead issues an RDMA READ of nbytes from remoteVA into local memory
// at localVA. Response chunks are DMA-written as they arrive.
func (n *NIC) PostRead(qpn uint32, remoteVA, localVA uint64, nbytes int, done func(error)) {
	n.Post(qpn, Verb{Op: OpRead, LocalVA: localVA, RemoteVA: remoteVA, Len: nbytes}, done)
}

// PostRPC issues an RDMA RPC (Listing 5's postRpc).
func (n *NIC) PostRPC(qpn uint32, rpcOp uint64, params []byte, done func(error)) {
	n.Post(qpn, Verb{Op: OpRPC, RPCOp: rpcOp, Params: params}, done)
}

// PostRPCWrite issues an RDMA RPC WRITE (Listing 5's postRpcWrite).
func (n *NIC) PostRPCWrite(qpn uint32, rpcOp uint64, localVA uint64, nbytes int, done func(error)) {
	n.Post(qpn, Verb{Op: OpRPCWrite, RPCOp: rpcOp, LocalVA: localVA, Len: nbytes}, done)
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

// verb is one posted verb between its doorbell and its completion, the
// NIC's entry in its table of verbs in flight. Records are recycled and
// every callback they hand out is bound once, so a verb allocates
// nothing here whatever its op, deadline or length.
//
// A record is recycled only at the call that makes it unreachable. Its
// holders are counted in refs: the transport, until it calls complete
// (the stack, and the DMA fetch of a WRITE's payload, complete a verb
// exactly once); the deadline guard, until it fires or complete cancels
// it; a WRITE's or RPC WRITE's payload stream, until its last chunk has
// arrived; a READ's sink, until its last response chunk has landed; and
// a process in Do, until it has read the result. The guard is the verb's
// only timer. When it fires, the caller is told and the posted message
// is expired, which completes the transport at once; a verb still
// behind a stalled doorbell or DMA stage is expired as soon as the stack
// accepts it. A READ flushed before its last chunk never releases its
// sink's hold: its record is left to the garbage collector, because a
// chunk still crossing PCIe would land on it.
type verb struct {
	n    *NIC
	v    Verb // Params is nil: an RPC's are copied into params
	qpn  uint32
	done func(error) // the caller's completion; nil for Do
	// wait is Do's completion (waiting set): the caller parks on it.
	wait    sim.Completion[struct{}]
	waiting bool
	params  []byte // RPC: the copy of v.Params

	refs      int
	delivered bool          // the caller has been told
	guard     sim.Event     // the deadline guard, while it is pending
	msg       *roce.Message // the posted message; nil until the stack accepts the verb
	got       int           // WRITE, RPC WRITE: payload bytes the DMA engine has delivered
	chunks    int           // READ: response chunks not yet landed in host memory
	ack       func()        // READ: the stack's acknowledgement of a landed chunk

	// Instrumentation (tel non-nil only when telemetry was attached at
	// post time): the span's start, trace lane and latency histogram.
	tel   *nicTelemetry
	start sim.Time
	tid   uint32
	hist  *telemetry.Histogram

	// Bound once per record.
	complete func(error)         // the transport's completion
	expire   func()              // the deadline guard
	ring     func()              // the doorbell
	fetched  func([]byte, error) // a WRITE's or RPC WRITE's payload chunk
	sink     roce.ReadSink
	landed   func(error) // a READ chunk's DMA write completion
}

// freeListCap bounds each of the NIC's free lists; past it, a retired
// record is left to the garbage collector.
const freeListCap = 1 << 14

// opNames labels the verbs in traces and metrics.
var opNames = [...]string{OpWrite: "WRITE", OpRead: "READ", OpRPC: "RPC", OpRPCWrite: "RPC_WRITE"}

// post takes a record for v, arms its deadline guard and rings the
// doorbell; waiting holds the record for Do.
func (n *NIC) post(qpn uint32, v Verb, done func(error), waiting bool) *verb {
	var r *verb
	if k := len(n.verbFree); k > 0 {
		r, n.verbFree = n.verbFree[k-1], n.verbFree[:k-1]
	} else {
		r = &verb{n: n}
		r.complete, r.expire, r.ring, r.fetched = r.transportDone, r.guardFired, r.doorbell, r.payload
		r.sink, r.landed = r.chunk, r.chunkLanded
	}
	// Every field but Params, which is copied below and never kept: a
	// caller's parameter block may then live on its stack.
	r.v = Verb{Op: v.Op, LocalVA: v.LocalVA, RemoteVA: v.RemoteVA, Len: v.Len, RPCOp: v.RPCOp, RKey: v.RKey, Deadline: v.Deadline}
	r.qpn, r.done, r.waiting, r.refs = qpn, done, waiting, 1
	if waiting {
		r.refs++
	}
	n.instrumentVerb(r)
	if v.Deadline != 0 {
		r.refs++
		r.guard = n.eng.ScheduleAt(v.Deadline, r.expire)
	}
	if n.crashed {
		r.complete(ErrMachineDown)
		return r
	}
	if v.Op == OpRPC {
		r.params = append(r.params[:0], v.Params...)
	}
	n.ringDoorbell(r.ring)
	return r
}

// doorbell runs when the doorbell write reaches the NIC: the request
// handler takes the verb over.
func (r *verb) doorbell() {
	n, v := r.n, &r.v
	switch v.Op {
	case OpWrite, OpRPCWrite:
		// The request handler fetches the payload with one DMA command
		// (§4.1) that delivers an MTU payload at a time (see payload).
		r.refs++
		n.observeDMA(mr.AccessLocal, v.LocalVA, v.Len)
		n.dma.ReadHostStream(hostmem.Addr(v.LocalVA), v.Len, n.cfg.Roce.MTUPayload, r.fetched)
	case OpRead:
		// done fires when the final chunk's DMA write has landed.
		r.refs++
		r.chunks = packet.NumSegments(v.Len, n.cfg.Roce.MTUPayload)
		m, err := n.stack.PostRead(r.qpn, v.RemoteVA, v.RKey, v.Len, r.sink, r.complete)
		if err != nil {
			r.release() // the sink was never handed out
		}
		r.posted(m, err)
	case OpRPC:
		r.posted(n.stack.PostRPC(r.qpn, v.RPCOp, r.params, r.complete))
	}
}

// posted takes the stack's answer to the verb's post. A refused verb
// completes with the error. An accepted one whose guard has already
// fired (the caller was told while the verb sat behind a stalled
// doorbell or DMA stage) is expired at once.
func (r *verb) posted(m *roce.Message, err error) {
	if err != nil {
		r.n.completeErr(r.complete, err)
		return
	}
	r.msg = m
	if r.delivered {
		m.Expire()
	}
}

// payload receives the next MTU payload of a WRITE or RPC WRITE, borrowed
// from the DMA engine: the first chunk posts the message, which reserves
// its PSNs, and every later one is fed to it (roce.Message.Feed), so a
// segment leaves as soon as its bytes have crossed PCIe and nothing in
// the data path holds a whole message. The stack has encoded the chunk
// into a frame when the post or Feed returns.
func (r *verb) payload(data []byte, err error) {
	n, v := r.n, &r.v
	switch {
	case err != nil:
		if r.msg != nil {
			r.msg.Abort(err)
		} else if r.got == 0 {
			n.completeErr(r.complete, err)
		}
		r.got = v.Len // the engine ends a failed stream
	case r.got == 0:
		if v.Op == OpRPCWrite {
			r.posted(n.stack.PostRPCWriteStream(r.qpn, v.RPCOp, v.Len, data, r.complete))
		} else {
			r.posted(n.stack.PostWriteStream(r.qpn, v.RemoteVA, v.RKey, v.Len, data, r.complete))
		}
	case r.msg != nil:
		r.msg.Feed(data)
	}
	if r.got += len(data); r.got >= v.Len {
		r.release() // the payload stream's hold
	}
}

// chunk is the READ's sink: each response chunk is DMA-written to its
// place in host memory out of the frame it arrived in, and the stack
// acknowledged once it has landed.
func (r *verb) chunk(off int, data []byte, ack func()) {
	n := r.n
	r.ack = ack
	n.observeDMA(mr.AccessLocal, r.v.LocalVA+uint64(off), len(data))
	n.dma.WriteHostFrame(hostmem.Addr(r.v.LocalVA)+hostmem.Addr(off), data, n.stack.TakeRxFrame(), r.landed)
}

func (r *verb) chunkLanded(err error) {
	if err != nil {
		r.n.logf("dma-fail", "nic: read sink DMA failed: %v", err)
	}
	r.chunks--
	last := r.chunks == 0
	r.ack()
	if last {
		r.release()
	}
}

// transportDone is the verb's completion from the request handler. It
// cancels the guard, whose hold ends with it: a cancelled event never
// fires.
func (r *verb) transportDone(err error) {
	if r.guard.Pending() {
		r.guard.Cancel()
		r.refs--
	}
	r.deliver(err)
	r.release()
}

// guardFired is the deadline guard: the caller is told now, then the
// posted message is expired, which completes the transport; a verb the
// stack has not accepted yet is expired when it is (see posted).
func (r *verb) guardFired() {
	r.guard = sim.Event{}
	r.deliver(fmt.Errorf("strom: verb canceled: %w", sim.ErrDeadlineExceeded))
	if r.msg != nil {
		r.msg.Expire()
	}
	r.release()
}

// deliver tells the caller, once.
func (r *verb) deliver(err error) {
	if r.delivered {
		return
	}
	r.delivered = true
	r.n.observeVerb(r, err)
	switch {
	case r.waiting:
		if err != nil {
			r.wait.Fail(err)
		} else {
			r.wait.Complete(struct{}{})
		}
	case r.done != nil:
		r.done(err)
	}
}

// release drops one hold and recycles the record with the last.
func (r *verb) release() {
	if r.refs--; r.refs > 0 {
		return
	}
	n := r.n
	r.done, r.ack, r.tel, r.hist, r.msg, r.got = nil, nil, nil, nil, nil, 0
	r.wait, r.delivered = sim.Completion[struct{}]{}, false
	if len(n.verbFree) < freeListCap {
		n.verbFree = append(n.verbFree, r)
	}
}
