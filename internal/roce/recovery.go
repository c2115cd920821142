package roce

import (
	"errors"
	"fmt"

	"strom/internal/sim"
)

// This file is the stack's failure-recovery layer: the explicit per-QP
// lifecycle state machine (RTS -> ERROR -> RESET -> RTS), the flush
// semantics that guarantee every posted verb completes exactly once even
// when its QP dies, and whole-stack freeze/restart for machine crash
// simulation.
//
// The state machine follows the IB verbs model: a QP starts Ready-To-Send,
// a transport-fatal condition (retry exhaustion, a remote access error on
// a READ) moves it to ERROR where every outstanding and future operation
// fails fast with a typed error, ResetQP moves it to RESET with all
// reliability state (PSNs, pending lists, Multi-Queue entries, the
// duplicate-READ cache, timers) provably cleared, and ReconnectQP
// re-enters RTS with fresh PSNs. Application-level NAKs (an RPC with no
// matching kernel) stay per-operation failures and leave the QP in RTS,
// mirroring how the paper's stack writes an error code back without
// tearing the connection down (§5.1).

// QPState is a queue pair's lifecycle state. The zero value is RTS so
// freshly created QPs are immediately usable.
type QPState uint8

const (
	// QPStateRTS: connected, sending and receiving.
	QPStateRTS QPState = iota
	// QPStateError: a fatal transport condition flushed the QP; posts and
	// received frames are rejected until it is reset.
	QPStateError
	// QPStateReset: torn down with reliability state cleared, awaiting
	// ReconnectQP.
	QPStateReset
)

func (s QPState) String() string {
	switch s {
	case QPStateRTS:
		return "RTS"
	case QPStateError:
		return "ERROR"
	case QPStateReset:
		return "RESET"
	}
	return fmt.Sprintf("QPState(%d)", uint8(s))
}

// Recovery failure modes (see also the request failure modes in stack.go;
// the taxonomy is documented on the public API in package strom).
var (
	// ErrQPError marks any completion or post rejection caused by the QP
	// leaving RTS: retry exhaustion, a fatal NAK, a reset, or a local NIC
	// crash. The triggering cause is wrapped alongside, so
	// errors.Is(err, ErrRetryExceeded) still works where applicable.
	ErrQPError = errors.New("roce: queue pair in error state")
	// ErrPeerCrashed reports that the remote machine is (still) down; the
	// cluster and testrig layers return it from reconnect attempts while
	// the peer NIC is crashed.
	ErrPeerCrashed = errors.New("roce: peer machine crashed")

	// errNICCrashed is the flush cause for a local crash (Freeze).
	errNICCrashed = errors.New("roce: local NIC crashed")
	// errQPReset is the flush cause when an operation is discarded by an
	// explicit ResetQP.
	errQPReset = errors.New("roce: queue pair reset")
)

// QPStateOf reports the lifecycle state of a queue pair.
func (s *Stack) QPStateOf(qpn uint32) (QPState, error) {
	st, err := s.st.get(qpn)
	if err != nil {
		return 0, err
	}
	return st.state, nil
}

// sendable rejects posts on a frozen stack or a QP outside RTS.
func (s *Stack) sendable(st *qpState) error {
	if s.frozen {
		return fmt.Errorf("%w: %w", ErrQPError, errNICCrashed)
	}
	switch st.state {
	case QPStateError:
		return fmt.Errorf("%w: post rejected in ERROR", ErrQPError)
	case QPStateReset:
		return fmt.Errorf("%w: post rejected in RESET (reconnect first)", ErrQPError)
	}
	return nil
}

// flushQP cancels the QP's retransmission timer and completes every
// outstanding operation — all unacknowledged request packets and every
// Multi-Queue READ — with err. Completion is idempotent per message, so
// multi-packet messages complete once and already-expired verbs stay
// settled.
func (s *Stack) flushQP(qpn uint32, st *qpState, err error) {
	s.timers[qpn].ev.Cancel()
	s.timers[qpn].ev = sim.Event{}
	for i, p := range st.pending {
		p.msg.finish(err)
		st.pending[i] = nil
		s.freePending(p)
	}
	st.pending, st.sent = st.pending[:0], 0
	for s.mq.len(qpn) > 0 {
		e, _ := s.mq.popHead(qpn)
		e.Msg.finish(err)
		s.retireRead(e)
	}
}

// moveToError transitions a QP to ERROR: all outstanding work completes
// with ErrQPError wrapping cause, the timer stops, and the transition is
// announced to telemetry and the observer. Idempotent.
func (s *Stack) moveToError(qpn uint32, st *qpState, cause error) {
	if st.state == QPStateError {
		return
	}
	st.state = QPStateError
	s.stats.QPErrors++
	s.flushQP(qpn, st, fmt.Errorf("%w: %w", ErrQPError, cause))
	s.noteState(qpn, QPStateError, cause)
}

// ResetQP tears a queue pair down: outstanding operations complete with
// ErrQPError, and every piece of reliability state — expected and next
// PSN, MSN, the running write address, NAK bookkeeping, the retry
// counter, the pending list, Multi-Queue entries, the duplicate-READ
// cache and the retransmission timer — is cleared. The QP lands in RESET
// and must be reconnected before use; the peer must reset its end too or
// the fresh PSN space will not line up.
func (s *Stack) ResetQP(qpn uint32) error {
	if s.frozen {
		return fmt.Errorf("%w: %w", ErrQPError, errNICCrashed)
	}
	st, err := s.st.get(qpn)
	if err != nil {
		return err
	}
	s.resetQP(qpn, st)
	return nil
}

// resetQP is ResetQP minus the frozen/lookup checks (shared by Restart).
func (s *Stack) resetQP(qpn uint32, st *qpState) {
	s.flushQP(qpn, st, fmt.Errorf("%w: %w", ErrQPError, errQPReset))
	clear(st.recentRds)
	*st = qpState{
		created:    true,
		remote:     st.remote,
		remoteQPN:  st.remoteQPN,
		remoteRKey: st.remoteRKey,
		recentRds:  st.recentRds,
		state:      QPStateReset,
	}
	s.stats.QPResets++
	s.noteState(qpn, QPStateReset, nil)
}

// ReconnectQP re-establishes a RESET queue pair: it re-enters RTS with
// fresh PSNs starting at zero on both the requester and responder side.
func (s *Stack) ReconnectQP(qpn uint32) error {
	if s.frozen {
		return fmt.Errorf("%w: %w", ErrQPError, errNICCrashed)
	}
	st, err := s.st.get(qpn)
	if err != nil {
		return err
	}
	if st.state != QPStateReset {
		return fmt.Errorf("%w: reconnect from %v (reset required)", ErrQPError, st.state)
	}
	st.state = QPStateRTS
	s.noteState(qpn, QPStateRTS, nil)
	return nil
}

// Freeze models the NIC losing power: the stack stops accepting posts and
// frames, and every created QP moves to ERROR, flushing its outstanding
// operations with a typed error. Restart is the only way back.
func (s *Stack) Freeze() {
	if s.frozen {
		return
	}
	for i := range s.st.qps {
		st := &s.st.qps[i]
		if st.created {
			s.moveToError(uint32(i), st, errNICCrashed)
		}
	}
	s.frozen = true
}

// Restart re-initialises a frozen stack: every created QP is reset (fresh
// state, RESET lifecycle state) and the stack accepts work again. QPs
// still need ReconnectQP — coordinated with the peer — to carry traffic.
func (s *Stack) Restart() {
	s.frozen = false
	for i := range s.st.qps {
		st := &s.st.qps[i]
		if st.created {
			s.resetQP(uint32(i), st)
		}
	}
}

// noteState emits a QP lifecycle transition to the trace buffer and the
// observer.
func (s *Stack) noteState(qpn uint32, state QPState, cause error) {
	if s.tb != nil {
		detail := fmt.Sprintf("qp=%d", qpn)
		if cause != nil {
			detail += " cause=" + cause.Error()
		}
		s.tb.Instant(s.pid, traceTidRetrans, "reliability", "qp_state:"+state.String(), detail)
	}
	if s.obs != nil {
		s.obs.QPStateChange(qpn, state, cause)
	}
}
