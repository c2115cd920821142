package strom

import (
	"strom/internal/core"
	"strom/internal/cpu"
	"strom/internal/roce"
	"strom/internal/sim"
)

// Failure recovery: machine crash/restart, queue-pair reconnection, verb
// deadlines and retry policies.
//
// # Error taxonomy
//
// Every error a verb can complete with is matched by errors.Is against
// one of these sentinels:
//
//   - ErrQPError — the queue pair left RTS and flushed its work. The
//     triggering cause is wrapped alongside: ErrRetryExceeded after the
//     transport gave up retransmitting (the peer is likely dead),
//     ErrRemoteInvalid after a fatal remote access error on a READ, or a
//     local crash/reset. Recover with QueuePair.Reconnect.
//   - ErrRetryExceeded — the go-back-N retry budget ran out with no
//     acknowledgement. Always wrapped in ErrQPError.
//   - ErrRemoteInvalid — the responder NAKed the request. For RPCs this
//     is per-operation (no kernel matched; the QP stays usable); for
//     READs it is fatal and also wrapped in ErrQPError.
//   - ErrRemoteAccess — the responder's memory protection NAKed the
//     request (bad/stale rkey, bounds, permission, unregistered VA; see
//     protect.go). Transport-fatal and wrapped in ErrQPError; reconnect
//     and re-fetch the peer's rkey.
//   - ErrDeadlineExceeded — a Verb's Deadline or a poll expired. The QP
//     is still healthy: the operation was abandoned by the caller, not
//     failed by the transport (frames already on the wire drain through
//     it without side effects on later operations).
//   - ErrPeerCrashed — a reconnect was attempted while the remote
//     machine is down; retry under backoff until it restarts.
//   - ErrMachineDown — a verb was posted on a crashed local machine.
//     Wraps ErrQPError.
var (
	ErrQPError          = roce.ErrQPError
	ErrRetryExceeded    = roce.ErrRetryExceeded
	ErrRemoteInvalid    = roce.ErrRemoteInvalid
	ErrPeerCrashed      = roce.ErrPeerCrashed
	ErrDeadlineExceeded = sim.ErrDeadlineExceeded
	ErrMachineDown      = core.ErrMachineDown
	ErrPollTimeout      = cpu.ErrPollTimeout
)

// Backoff is an exponential-backoff policy with jitter for
// application-level retries (reconnect loops, poll-and-retry). Jitter is
// drawn from the cluster engine's RNG, so retry schedules replay
// deterministically from the seed.
type Backoff = sim.Backoff

// Crash freezes this machine, as if it lost power: in-flight kernels
// abort, the DMA engine goes offline, all queue pairs flush with typed
// errors, and every frame to or from the machine is dropped. Peers are
// not notified — they detect the death through verb deadlines or retry
// exhaustion. No-op if already crashed.
func (m *Machine) Crash() { m.nic.Crash() }

// Restart powers a crashed machine back up. Host memory and deployed
// kernels survive; queue pairs come back in RESET and must be
// re-established with QueuePair.Reconnect before carrying traffic.
// No-op if not crashed.
func (m *Machine) Restart() { m.nic.Restart() }

// Crashed reports whether the machine is currently down.
func (m *Machine) Crashed() bool { return m.nic.Crashed() }

// Reconnect re-establishes the connection after a failure (on either
// end): both queue pairs are reset — flushing anything still outstanding
// with ErrQPError — and reconnected with fresh PSNs. While either machine
// is down it fails with ErrPeerCrashed; retry under a Backoff until the
// machine restarts.
func (qp *QueuePair) Reconnect() error {
	return core.Reconnect(qp.A.nic, qp.QPNA, qp.B.nic, qp.QPNB)
}

// StateA and StateB report the lifecycle state of the two queue pairs
// ("RTS", "ERROR", "RESET") for diagnostics.
func (qp *QueuePair) StateA() string { return qpStateName(qp.A.nic, qp.QPNA) }
func (qp *QueuePair) StateB() string { return qpStateName(qp.B.nic, qp.QPNB) }

func qpStateName(n *core.NIC, qpn uint32) string {
	st, err := n.Stack().QPStateOf(qpn)
	if err != nil {
		return "UNKNOWN"
	}
	return st.String()
}

// PollNonZeroDeadline is PollNonZero bounded by a timeout: it returns an
// error wrapping ErrDeadlineExceeded when the byte stays zero for the
// whole window — the completion-detection primitive of a client waiting
// on a possibly-dead peer.
func (mem *Memory) PollNonZeroDeadline(p *Process, va Addr, timeout Duration) error {
	return mem.m.nic.Host().PollNonZero(p, mem.m.nic.Memory(), va, timeout)
}

// Retry runs op up to attempts times, sleeping b.Delay between failures
// (jitter drawn from the engine RNG for seed-determinism). It returns nil
// on the first success, or the last error.
func Retry(p *Process, b Backoff, attempts int, op func() error) error {
	var err error
	for i := 0; i < attempts; i++ {
		if err = op(); err == nil {
			return nil
		}
		if i < attempts-1 {
			p.Sleep(b.Delay(i, p.Engine().Rand()))
		}
	}
	return err
}
