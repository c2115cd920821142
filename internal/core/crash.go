package core

import (
	"fmt"

	"strom/internal/roce"
	"strom/internal/sim"
)

// This file models machine failure and the verb-level deadlines that let
// surviving peers detect it quickly: Crash freezes every component of the
// NIC (RoCE stack, DMA engine, kernels) and drops all traffic; Restart
// re-initialises NIC state, leaving queue pairs in RESET for the
// application to reconnect; the *Deadline verb variants bound how long a
// caller waits on a possibly-dead peer.

// ErrMachineDown reports an operation rejected because the local machine
// is crashed. It wraps roce.ErrQPError so one errors.Is check covers
// local-crash, retry-exhaustion and reset rejections alike.
var ErrMachineDown = fmt.Errorf("%w: machine is down", roce.ErrQPError)

// Crash freezes the machine, as if it lost power mid-operation:
//
//   - every created queue pair moves to ERROR, flushing outstanding verbs
//     with typed errors (roce.Stack.Freeze);
//   - the DMA engine goes offline — new commands fail with pcie.ErrOffline;
//   - in-flight kernel FSMs abort: their scheduled continuations (DMA
//     completions, pipeline delays, dispatch events) are dropped on the
//     floor via the epoch check, so a pointer-chase traversal mid-hop
//     simply stops and its pooled frames are recycled by the stack;
//   - frames in the TX pipeline die at the port, and frames arriving from
//     the fabric are dropped and recycled.
//
// Crashing an already-crashed machine is a no-op. Peers are not notified:
// they observe the death through retry exhaustion or verb deadlines,
// exactly as on real hardware.
func (n *NIC) Crash() {
	if n.crashed {
		return
	}
	n.crashed = true
	n.epoch++
	n.stats.Crashes++
	n.stack.Freeze()
	n.dma.SetOffline(true)
}

// Restart powers a crashed machine back up: the DMA engine comes online
// and every queue pair is re-initialised into RESET with fresh reliability
// state (PSNs at zero, empty pending lists, cleared duplicate-READ cache).
// Host memory contents survive — the host did not crash, the NIC did —
// and deployed kernels stay deployed, but their in-flight invocations are
// gone. QPs must be reconnected (coordinated with the peer) before use.
// Restarting a running machine is a no-op.
func (n *NIC) Restart() {
	if !n.crashed {
		return
	}
	n.crashed = false
	n.epoch++
	n.stats.Restarts++
	n.dma.SetOffline(false)
	n.stack.Restart()
	// Rotate every region's rkey: keys handed out before the crash are
	// dead, exactly like rkeys minted by a restarted RNIC driver. Peers
	// must re-fetch keys alongside the QP reconnect.
	n.mrt.RotateKeys()
}

// Crashed reports whether the machine is currently down.
func (n *NIC) Crashed() bool { return n.crashed }

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

// PostWriteDeadline is PostWrite with an absolute sim-time deadline (zero
// means none): if the write has not been acknowledged by then, done fires
// with an error wrapping sim.ErrDeadlineExceeded. The frames already on
// the wire keep draining through go-back-N — cancellation decouples the
// application from the transport without disturbing the PSN space.
func (n *NIC) PostWriteDeadline(qpn uint32, localVA, remoteVA uint64, nbytes int, deadline sim.Time, done func(error)) {
	n.PostWriteKeyDeadline(qpn, localVA, remoteVA, 0, nbytes, deadline, done)
}

// PostReadDeadline is PostRead with an absolute sim-time deadline (zero
// means none; see PostWriteDeadline).
func (n *NIC) PostReadDeadline(qpn uint32, remoteVA, localVA uint64, nbytes int, deadline sim.Time, done func(error)) {
	n.PostReadKeyDeadline(qpn, remoteVA, localVA, 0, nbytes, deadline, done)
}

// PostRPCDeadline is PostRPC with an absolute sim-time deadline (zero
// means none; see PostWriteDeadline).
func (n *NIC) PostRPCDeadline(qpn uint32, rpcOp uint64, params []byte, deadline sim.Time, done func(error)) {
	done = n.withDeadline(deadline, n.instrumentOp("RPC", qpn, done))
	if n.crashed {
		n.completeErr(done, ErrMachineDown)
		return
	}
	p := append([]byte(nil), params...)
	n.ringDoorbell(func() {
		if err := n.stack.PostRPCDeadline(qpn, rpcOp, p, deadline, done); err != nil {
			n.completeErr(done, err)
		}
	})
}

// PostRPCWriteDeadline is PostRPCWrite with an absolute sim-time deadline
// (zero means none; see PostWriteDeadline).
func (n *NIC) PostRPCWriteDeadline(qpn uint32, rpcOp uint64, localVA uint64, nbytes int, deadline sim.Time, done func(error)) {
	done = n.withDeadline(deadline, n.instrumentOp("RPC_WRITE", qpn, done))
	if n.crashed {
		n.completeErr(done, ErrMachineDown)
		return
	}
	n.ringDoorbell(func() {
		n.fetchPayload(true, qpn, localVA, rpcOp, 0, nbytes, deadline, done)
	})
}

// await blocks the process on a posted verb's completion.
func await(p *sim.Process, post func(done func(error))) error {
	c := &sim.Completion[struct{}]{}
	post(func(err error) {
		if err != nil {
			c.Fail(err)
		} else {
			c.Complete(struct{}{})
		}
	})
	_, err := c.Wait(p)
	return err
}

// WriteSyncDeadline performs PostWriteDeadline and blocks the process.
func (n *NIC) WriteSyncDeadline(p *sim.Process, qpn uint32, localVA, remoteVA uint64, nbytes int, deadline sim.Time) error {
	return await(p, func(done func(error)) {
		n.PostWriteDeadline(qpn, localVA, remoteVA, nbytes, deadline, done)
	})
}

// ReadSyncDeadline performs PostReadDeadline and blocks the process.
func (n *NIC) ReadSyncDeadline(p *sim.Process, qpn uint32, remoteVA, localVA uint64, nbytes int, deadline sim.Time) error {
	return await(p, func(done func(error)) {
		n.PostReadDeadline(qpn, remoteVA, localVA, nbytes, deadline, done)
	})
}

// RPCSyncDeadline performs PostRPCDeadline and blocks the process.
func (n *NIC) RPCSyncDeadline(p *sim.Process, qpn uint32, rpcOp uint64, params []byte, deadline sim.Time) error {
	return await(p, func(done func(error)) {
		n.PostRPCDeadline(qpn, rpcOp, params, deadline, done)
	})
}

// RPCWriteSyncDeadline performs PostRPCWriteDeadline and blocks the
// process.
func (n *NIC) RPCWriteSyncDeadline(p *sim.Process, qpn uint32, rpcOp uint64, localVA uint64, nbytes int, deadline sim.Time) error {
	return await(p, func(done func(error)) {
		n.PostRPCWriteDeadline(qpn, rpcOp, localVA, nbytes, deadline, done)
	})
}
