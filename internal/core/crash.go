package core

import (
	"fmt"

	"strom/internal/roce"
)

// This file models machine failure and the verb-level deadlines that let
// surviving peers detect it quickly: Crash freezes every component of the
// NIC (RoCE stack, DMA engine, kernels) and drops all traffic; Restart
// re-initialises NIC state, leaving queue pairs in RESET for the
// application to reconnect (Reconnect). Verb.Deadline (verb.go) bounds
// how long a caller waits on a possibly-dead peer.

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

// Reconnect re-establishes the connection between qpa on a and qpb on b
// after a failure on either end: both queue pairs are reset — flushing
// anything still outstanding with roce.ErrQPError — and reconnected with
// fresh PSNs, b's side first. While either machine is down it fails with
// an error wrapping roce.ErrPeerCrashed that names the machine by its IP;
// callers retry under backoff until it restarts. Rkeys rotate on restart:
// re-exchange them after a successful reconnect.
func Reconnect(a *NIC, qpa uint32, b *NIC, qpb uint32) error {
	for _, n := range [...]*NIC{a, b} {
		if n.crashed {
			return fmt.Errorf("%w: %v is down", roce.ErrPeerCrashed, n.Identity().IP)
		}
	}
	if err := b.stack.ResetQP(qpb); err != nil {
		return err
	}
	if err := a.stack.ResetQP(qpa); err != nil {
		return err
	}
	if err := b.stack.ReconnectQP(qpb); err != nil {
		return err
	}
	return a.stack.ReconnectQP(qpa)
}
