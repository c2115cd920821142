package roce

import (
	"fmt"
	"strconv"

	"strom/internal/packet"
	"strom/internal/telemetry"
)

// Trace track (tid) layout inside a stack's process (pid): the TX and RX
// pipelines, a reliability lane for retransmissions and timeouts, and a
// log lane for diagnostics.
const (
	traceTidTx      = 1
	traceTidRx      = 2
	traceTidRetrans = 3
	traceTidLog     = 4
)

// AttachTelemetry wires the stack into the observability layer: the
// registry receives every Stats counter labelled by NIC (mirrored by a
// collect callback, so the data path is untouched), and the trace buffer
// receives one instant event per packet on the TX/RX/reliability tracks
// under pid. Either argument may be nil.
func (s *Stack) AttachTelemetry(reg *telemetry.Registry, tb *telemetry.TraceBuffer, pid uint32) {
	nic := telemetry.L("nic", s.id.IP.String())
	if reg != nil {
		reg.OnCollect(func() {
			st := s.stats
			reg.Counter("roce_tx_packets", nic).Set(st.TxPackets)
			reg.Counter("roce_tx_bytes", nic).Set(st.TxBytes)
			reg.Counter("roce_rx_packets", nic).Set(st.RxPackets)
			reg.Counter("roce_rx_bytes", nic).Set(st.RxBytes)
			reg.Counter("roce_rx_discarded", nic).Set(st.RxDiscarded)
			reg.Counter("roce_rx_duplicates", nic).Set(st.RxDuplicates)
			reg.Counter("roce_rx_out_of_order", nic).Set(st.RxOutOfOrder)
			reg.Counter("roce_acks_sent", nic).Set(st.AcksSent)
			reg.Counter("roce_naks_sent", nic).Set(st.NaksSent)
			reg.Counter("roce_nak_remote_access", nic).Set(st.NaksRemoteAccess)
			reg.Counter("roce_acks_received", nic).Set(st.AcksReceived)
			reg.Counter("roce_naks_received", nic).Set(st.NaksReceived)
			reg.Counter("roce_retransmissions", nic).Set(st.Retransmissions)
			reg.Counter("roce_timeouts", nic).Set(st.Timeouts)
			reg.Counter("roce_dup_read_cache_hits", nic).Set(st.DupReadCacheHits)
			reg.Counter("roce_dup_read_cache_misses", nic).Set(st.DupReadCacheMiss)
			reg.Counter("roce_qp_errors", nic).Set(st.QPErrors)
			reg.Counter("roce_qp_resets", nic).Set(st.QPResets)
			reg.Counter("roce_deadline_expired", nic).Set(st.DeadlineExpired)
			reg.Counter("roce_ops_posted", nic).Set(st.OpsPosted)
			reg.Counter("roce_ops_completed", nic).Set(st.OpsCompleted)
			reg.Counter("roce_ecn_marked_rx", nic).Set(st.EcnMarkedRx)
			reg.Counter("roce_cnps_sent", nic).Set(st.CnpsSent)
			reg.Counter("roce_cnps_received", nic).Set(st.CnpsReceived)
			reg.Counter("roce_paced_frames", nic).Set(st.PacedFrames)
			s.EachActiveQP(func(qpn uint32) {
				reg.Gauge("roce_qp_state", nic,
					telemetry.L("qp", strconv.Itoa(int(qpn)))).Set(float64(s.st.qps[qpn].state))
			})
		})
	}
	if tb != nil {
		tb.NameThread(pid, traceTidTx, "roce:tx")
		tb.NameThread(pid, traceTidRx, "roce:rx")
		tb.NameThread(pid, traceTidRetrans, "roce:reliability")
		tb.NameThread(pid, traceTidLog, "roce:log")
	}
	s.tb = tb
	s.pid = pid
}

// logf records a diagnostic on the stack's log lane (structured
// tracing). name is the instant's short event name; format/args carry
// the detail.
func (s *Stack) logf(name, format string, args ...any) {
	if s.tb != nil {
		s.tb.Instant(s.pid, traceTidLog, "log", name, fmt.Sprintf(format, args...))
	}
}

// EachActiveQP calls fn for every created queue pair in ascending QPN
// order (deterministic — used by telemetry sampling probes).
func (s *Stack) EachActiveQP(fn func(qpn uint32)) {
	for i := range s.st.qps {
		if s.st.qps[i].created {
			fn(uint32(i))
		}
	}
}

// PendingPackets reports the number of requester packets posted and not
// yet acknowledged on a QP — on the wire, or still waiting for their
// payload to cross PCIe (zero for unknown QPs).
func (s *Stack) PendingPackets(qpn uint32) int {
	st, err := s.st.get(qpn)
	if err != nil {
		return 0
	}
	return len(st.pending)
}

// Observer receives protocol-level events from a stack, synchronously
// from the data path. It is the hook the chaos invariant checker
// (internal/chaos) sits on: where AttachTelemetry mirrors aggregate
// counters, the Observer sees the per-packet facts correctness proofs
// need — PSNs, retransmission decisions, responder executions, verb
// lifecycles. All methods are called with the engine's run token held;
// implementations must not re-enter the stack. A nil observer (the
// default) costs one pointer compare per event.
type Observer interface {
	// PostedOp records a verb accepted by a Post* call. opID is unique
	// per stack and strictly increasing.
	PostedOp(qpn uint32, opID uint64, kind string)
	// CompletedOp records the verb's single completion (err nil on
	// success). Every PostedOp must eventually be matched by exactly one
	// CompletedOp — the liveness invariant.
	CompletedOp(qpn uint32, opID uint64, err error)
	// TxRequest records a requester packet entering the TX pipeline.
	// npsn is the number of PSNs the packet consumes (reads consume one
	// per expected response packet); it is 0 for retransmissions, whose
	// PSN must already have been announced.
	TxRequest(qpn uint32, psn, npsn uint32, op packet.Opcode, retransmit bool)
	// RespExec records the responder executing a request: fresh in-order
	// requests advance the expected PSN by npsn; dup reports a
	// re-execution in the duplicate PSN region (legal only for READs,
	// with npsn 0).
	RespExec(qpn uint32, psn, npsn uint32, op packet.Opcode, dup bool)
	// RespReadData records the payload the responder served for the READ
	// anchored at psn, as a CRC64 digest: duplicate servings of the same
	// PSN must be bit-identical. The data leaves piece by piece, so the
	// digest is a running one, reported once, after the last response
	// frame has been encoded; a serving that fails midway reports none.
	RespReadData(qpn uint32, psn uint32, sum uint64, n int)
	// Timeout records a retransmission-timer expiry that found no
	// progress. retries is the incremented retry counter; outstanding is
	// the number of unacknowledged packets plus pending reads.
	Timeout(qpn uint32, retries, outstanding int)
	// QPStateChange records a lifecycle transition (see QPState). cause is
	// non-nil only for transitions into ERROR. A transition to RESET
	// invalidates all prior PSN expectations for the QP: after reconnect
	// both directions restart from PSN zero.
	QPStateChange(qpn uint32, state QPState, cause error)
}

// SetObserver installs a protocol observer (nil removes it).
func (s *Stack) SetObserver(obs Observer) { s.obs = obs }

// DebugFaults injects deliberate protocol bugs into the stack. The only
// consumer is the invariant-checker test suite, which must demonstrate
// that a broken transport is flagged; the zero value (the default) is
// inert and the hot paths never branch on it unless a fault is armed.
type DebugFaults struct {
	// SkipPSNAt makes the requester silently consume one extra PSN
	// before the n-th posted verb (1-based; 0 disables), tearing the
	// contiguous-PSN contract.
	SkipPSNAt int
	// CorruptDupRead flips a bit in payloads served from the
	// duplicate-READ cache, breaking bit-identical replay.
	CorruptDupRead bool
	// SuppressRetransmit drops every go-back-N resend on the floor:
	// timeouts and NAKs still fire, but nothing is put on the wire.
	SuppressRetransmit bool
}

// SetDebugFaults arms deliberate protocol bugs (tests only).
func (s *Stack) SetDebugFaults(f DebugFaults) { s.dbg = f }

// traceFrame decodes an encoded frame and records it as an instant event
// on the given track. Only called when tracing is enabled, so the decode
// cost never touches the disabled path.
func (s *Stack) traceFrame(tid uint32, cat string, frame []byte) {
	pkt, err := packet.Decode(frame)
	if err != nil {
		s.tb.Instant(s.pid, tid, cat, "undecodable", err.Error())
		return
	}
	s.tb.Instant(s.pid, tid, cat, pkt.BTH.Opcode.String(), pkt.String())
}
