package roce

import (
	"errors"
	"fmt"

	"strom/internal/crc"
	"strom/internal/packet"
	"strom/internal/sim"
	"strom/internal/telemetry"
)

// Handler is the host-side interface the responder data path drives — in
// a full NIC this is the StRoM arbitration layer sitting between the
// stack and the DMA engine (Figure 1).
type Handler interface {
	// HandleWrite stores one RDMA WRITE segment at va. Segments of a
	// message arrive in order; last marks the final segment.
	HandleWrite(qpn uint32, va uint64, data []byte, last bool)
	// HandleReadRequest serves an RDMA READ: the handler fetches n bytes
	// at va (normally via DMA) and hands them to deliver, either in one
	// call or as consecutive pieces while they arrive; every piece but
	// the last must be a whole number of MTU payloads, and the stack
	// sends a response frame for each MTU payload as it gets it. The
	// stack is done with a piece when deliver returns (its frames are
	// encoded by then), so the handler may reuse the buffer afterwards.
	// An error ends the serving: deliver(nil, err), once, NAKs the rest.
	HandleReadRequest(qpn uint32, va uint64, n int, deliver func(data []byte, err error))
	// HandleRPCParams delivers an RDMA RPC invocation. A non-nil error
	// NAKs the request ("an error code is written back", §5.1).
	HandleRPCParams(qpn uint32, rpcOp uint64, params []byte) error
	// HandleRPCWrite streams one RDMA RPC WRITE segment to the kernel
	// identified by rpcOp.
	HandleRPCWrite(qpn uint32, rpcOp uint64, data []byte, last bool) error
}

// ReadSink consumes RDMA READ response data on the requester: chunks
// arrive in offset order and the sink must call ack when it has disposed
// of the chunk (e.g. when the local DMA write completed).
type ReadSink func(offset int, chunk []byte, ack func())

// AccessValidator is the optional memory-protection hook on the
// responder path. When the stack's Handler also implements it (the core
// NIC does, against its MR table), every RETH-bearing WRITE or READ
// request is validated before any handler call: a non-nil error NAKs
// the request with SynNAKRemoteAccess and the expected PSN does not
// advance, so no memory is touched and a lost NAK is re-sent when the
// requester retransmits. Duplicate READs served from the recent-read
// cache are re-validated with their original rkey, so a region
// deregistered or restamped since the first execution is not replayed.
type AccessValidator interface {
	// ValidateRemote vets op's access to [reth.VirtualAddress,
	// +reth.DMALength) under reth.RKey. op is a WRITE first/only opcode
	// or OpReadRequest; RPC opcodes are never validated here (their RETH
	// address field carries the RPC op-code, not a VA).
	ValidateRemote(qpn uint32, op packet.Opcode, reth packet.RETH) error
}

// Stats counts stack activity, exposed through the Controller's status
// registers (§4.3).
type Stats struct {
	TxPackets        uint64
	TxBytes          uint64 // encoded frame bytes handed to the fabric
	RxPackets        uint64
	RxBytes          uint64 // frame bytes delivered by the fabric
	RxDiscarded      uint64 // undecodable (bad ICRC / checksum / opcode)
	RxDuplicates     uint64
	RxOutOfOrder     uint64
	AcksSent         uint64
	NaksSent         uint64
	AcksReceived     uint64
	NaksReceived     uint64
	Retransmissions  uint64
	Timeouts         uint64
	DupReadCacheHits uint64 // duplicate READs answered from the recent-read cache
	DupReadCacheMiss uint64 // duplicate READs outside the cache window (dropped)
	QPErrors         uint64 // queue pairs moved to the ERROR state
	QPResets         uint64 // queue pair resets (explicit or via restart)
	DeadlineExpired  uint64 // verbs canceled by their deadline
	NaksRemoteAccess uint64 // SynNAKRemoteAccess sent (memory protection violations)
	OpsPosted        uint64 // verbs accepted by the requester path
	OpsCompleted     uint64 // verbs finished (success or error)
	EcnMarkedRx      uint64 // delivered frames carrying the ECN CE mark
	CnpsSent         uint64 // congestion notifications reflected (NP side)
	CnpsReceived     uint64 // congestion notifications received (RP side)
	PacedFrames      uint64 // requester frames delayed by the DCQCN rate limiter
}

// Request failure modes.
var (
	ErrRetryExceeded = errors.New("roce: transport retry count exceeded")
	ErrRemoteInvalid = errors.New("roce: remote NAK (invalid request)")
	ErrTooManyReads  = errors.New("roce: too many outstanding reads")
	// ErrRemoteAccess reports a SynNAKRemoteAccess from the responder: the
	// request failed memory protection (bad/stale rkey, bounds, permission
	// or an unregistered VA). Like the IB remote-access error class it is
	// transport-fatal — the QP moves to ERROR (wrapped in ErrQPError) and
	// must be reset and reconnected, typically re-fetching the rkey.
	ErrRemoteAccess = errors.New("roce: remote NAK (memory protection violation)")
)

// Stack is one StRoM RoCE v2 protocol engine.
type Stack struct {
	eng      *sim.Engine
	cfg      Config
	id       Identity
	handler  Handler
	valid    AccessValidator // non-nil when the handler implements it
	transmit func(frame []byte)

	st     *stateTable
	mq     *multiQueue
	rxPath *sim.Serializer
	txPath *sim.Serializer
	timers []sim.Event

	stats Stats

	// Structured tracing (nil when telemetry is disabled; see
	// AttachTelemetry). Hot paths gate on tb with one pointer compare.
	tb  *telemetry.TraceBuffer
	pid uint32

	// Protocol observation and deliberate fault injection (see
	// instrument.go). obs is nil unless an invariant checker is attached.
	obs   Observer
	opSeq uint64
	dbg   DebugFaults

	// frozen marks the whole stack dead (machine crash, see recovery.go):
	// every post fails and every received frame is discarded.
	frozen bool

	// cc is the DCQCN congestion-control state, nil unless EnableDCQCN
	// was called. While nil the stack takes no DCQCN branch anywhere,
	// keeping runs byte-identical to the pre-DCQCN behaviour.
	cc *dcqcnControl

	// Scratch packets for the zero-alloc hot path: rxPkt is reparsed for
	// every received frame (DecodeInto), ackPkt rebuilt for every
	// transient ACK/NAK (SetAck), txPkt for every outgoing request
	// segment (FillSegment). Each is only live within one synchronous
	// processing step, which is what makes reuse safe.
	rxPkt  packet.Packet
	ackPkt packet.Packet
	txPkt  packet.Packet

	// Drain queues for the per-frame pipeline completions: pushes pair
	// 1:1 with scheduled drain callbacks, which the engine fires in push
	// order (serializer reservations are monotone), so no per-frame
	// closure is ever allocated. The drain funcs are bound once here.
	txq       sim.FIFO[txDone]
	rxq       sim.FIFO[[]byte]
	txDrainFn func()
	rxDrainFn func()

	// Free list for pendingPacket bookkeeping entries, recycled when the
	// cumulative-ACK path retires them, and for the responder's READ
	// servings, recycled when their last piece has been sent.
	ppFree []*pendingPacket
	rsFree []*readServing

	// Per-QP retransmission counters, kept beside (not inside) qpState so
	// they survive ResetQP/ReconnectQP: the retry-storm alert rule watches
	// their rate, and a reset must never make a counter go backwards.
	qpRetrans []uint64
}

// txDone is one queued TX-pipeline completion.
type txDone struct {
	st      *qpState
	frame   []byte
	recycle bool
}

// NewStack builds a stack. transmit pushes encoded frames into the
// fabric; handler receives responder-side operations.
func NewStack(eng *sim.Engine, cfg Config, id Identity, handler Handler, transmit func([]byte)) *Stack {
	valid, _ := handler.(AccessValidator)
	s := &Stack{
		eng:       eng,
		cfg:       cfg,
		id:        id,
		handler:   handler,
		valid:     valid,
		transmit:  transmit,
		st:        newStateTable(cfg.NumQPs),
		mq:        newMultiQueue(cfg.NumQPs, cfg.MultiQueuePool, cfg.ReadDepthPerQP),
		rxPath:    sim.NewSerializer(eng),
		txPath:    sim.NewSerializer(eng),
		timers:    make([]sim.Event, cfg.NumQPs),
		qpRetrans: make([]uint64, cfg.NumQPs),
	}
	s.txDrainFn = s.drainTx
	s.rxDrainFn = s.drainRx
	return s
}

// Config returns the stack configuration.
func (s *Stack) Config() Config { return s.cfg }

// Identity returns the stack's network identity.
func (s *Stack) Identity() Identity { return s.id }

// Stats returns a snapshot of the activity counters.
func (s *Stack) Stats() Stats { return s.stats }

// OutstandingReads reports the Multi-Queue occupancy for a QP.
func (s *Stack) OutstandingReads(qpn uint32) int { return s.mq.len(qpn) }

// QPRetransmissions reports the retransmitted-frame count of one QP.
// Unlike the lifecycle state in qpState the counter survives
// ResetQP/ReconnectQP, so scrape deltas and rate rules never observe it
// going backwards across a recovery cycle.
func (s *Stack) QPRetransmissions(qpn uint32) uint64 {
	if int(qpn) >= len(s.qpRetrans) {
		return 0
	}
	return s.qpRetrans[qpn]
}

// CreateQP installs a queue pair connected to a remote stack.
func (s *Stack) CreateQP(qpn uint32, remote Identity, remoteQPN uint32) error {
	return s.st.create(qpn, remote, remoteQPN)
}

// --- transmit path -------------------------------------------------------

// enqueue encodes a requester packet into the next entry of the QP's
// pending list and lets pump put it on the wire. The frame is retained
// for retransmission, so its buffer is heap-allocated, never pooled.
func (s *Stack) enqueue(qpn uint32, st *qpState, pkt *packet.Packet, npsn uint32, msg *outMessage) *pendingPacket {
	pp := s.newPending()
	pp.psn, pp.npsn, pp.msg, pp.isRead, pp.lastOf = pkt.BTH.PSN, npsn, msg, msg.isRead, !msg.isRead
	st.pending = append(st.pending, pp)
	s.fill(st, pp, pkt)
	s.pump(qpn, st)
	return pp
}

// fill encodes pkt as the frame of pending entry pp.
func (s *Stack) fill(st *qpState, pp *pendingPacket, pkt *packet.Packet) {
	s.address(st, pkt)
	pp.frame, pp.op = pkt.Encode(), pkt.BTH.Opcode
}

// pump moves the QP's encoded request frames into the TX pipeline in PSN
// order, stopping at the first whose payload has not arrived yet: the
// segments of a streamed message are posted before they are fetched, and
// whatever is posted behind them (a READ request, a kernel's RDMA WRITE,
// the next message) waits its turn instead of overtaking — the responder
// would NAK the gap.
func (s *Stack) pump(qpn uint32, st *qpState) {
	for st.sent < len(st.pending) {
		p := st.pending[st.sent]
		if p.frame == nil {
			return
		}
		st.sent++
		if s.obs != nil {
			s.obs.TxRequest(qpn, p.psn, p.npsn, p.op, false)
		}
		s.sendFrame(st, p.frame, s.words(p.frame), false)
	}
}

// words is the number of data-path words a frame occupies in a pipeline.
func (s *Stack) words(frame []byte) int {
	return (len(frame) + s.cfg.DataPathBytes - 1) / s.cfg.DataPathBytes
}

// sendTransient transmits a packet whose frame is never retained for
// retransmission (ACKs, NAKs, read responses — the responder's entire
// output): the encode buffer comes from the frame pool and returns to
// it as soon as the frame has left for the fabric, which copies it.
func (s *Stack) sendTransient(st *qpState, pkt *packet.Packet) {
	s.address(st, pkt)
	frame := pkt.EncodeTo(packet.GetBuf())
	s.sendFrame(st, frame, pkt.Words(s.cfg.DataPathBytes), true)
}

// address fills in the Ethernet/IP addressing for a QP's peer.
func (s *Stack) address(st *qpState, pkt *packet.Packet) {
	pkt.SrcMAC = s.id.MAC
	pkt.DstMAC = st.remote.MAC
	pkt.SrcIP = s.id.IP
	pkt.DstIP = st.remote.IP
}

// sendFrame reserves the TX data path and hands the frame to the fabric.
// The QP's activity counter is bumped when the frame actually leaves, so
// the retransmission timer never expires while a long message is still
// draining through the pipeline. With recycle, the frame buffer goes
// back to the pool once transmitted (the fabric copies frames on send).
func (s *Stack) sendFrame(st *qpState, frame []byte, words int, recycle bool) {
	// DCQCN pacing applies to requester (retained) frames only: ACKs,
	// NAKs, read responses and CNPs are recycle frames and bypass the
	// rate limiter, exactly as hardware keeps the responder unpaced.
	if s.cc != nil && !recycle {
		if start := s.paceFrame(st, len(frame)); start > s.eng.Now() {
			s.stats.PacedFrames++
			s.eng.ScheduleAt(start, func() { s.dispatchFrame(st, frame, words, recycle) })
			return
		}
	}
	s.dispatchFrame(st, frame, words, recycle)
}

// dispatchFrame enters the TX pipeline proper. Reservation end times
// are monotone in call order (the serializer never goes backwards), so
// txq drains still fire in push order even when pacing delays a frame.
func (s *Stack) dispatchFrame(st *qpState, frame []byte, words int, recycle bool) {
	end := s.txPath.Reserve(s.cfg.Cycles(words))
	s.txq.Push(txDone{st: st, frame: frame, recycle: recycle})
	s.eng.ScheduleAt(end.Add(s.cfg.Cycles(s.cfg.TxFixedCycles)), s.txDrainFn)
}

// drainTx completes the oldest queued TX-pipeline reservation. TX
// completion times are non-decreasing in push order, so the engine
// fires these in exactly push order (see sim.FIFO).
func (s *Stack) drainTx() {
	d := s.txq.Pop()
	s.stats.TxPackets++
	s.stats.TxBytes += uint64(len(d.frame))
	d.st.progress++
	if s.tb != nil {
		s.traceFrame(traceTidTx, "tx", d.frame)
	}
	s.transmit(d.frame)
	if d.recycle {
		packet.PutBuf(d.frame)
	}
}

// retransmitFrame re-sends a stored frame.
func (s *Stack) retransmitFrame(qpn uint32, st *qpState, frame []byte) {
	if s.dbg.SuppressRetransmit {
		// Deliberate protocol bug (checker validation): the resend is
		// silently discarded.
		return
	}
	s.stats.Retransmissions++
	if int(qpn) < len(s.qpRetrans) {
		s.qpRetrans[qpn]++
	}
	if s.tb != nil {
		s.traceFrame(traceTidRetrans, "retransmit", frame)
	}
	if s.obs != nil {
		if pkt, err := packet.Decode(frame); err == nil {
			s.obs.TxRequest(qpn, pkt.BTH.PSN, 0, pkt.BTH.Opcode, true)
		}
	}
	s.sendFrame(st, frame, s.words(frame), false)
}

// newOp assigns the next verb id and applies the PSN-skip debug fault.
func (s *Stack) newOp(st *qpState) uint64 {
	s.opSeq++
	if s.dbg.SkipPSNAt > 0 && s.opSeq == uint64(s.dbg.SkipPSNAt) {
		st.nextPSN = psnAdd(st.nextPSN, 1)
	}
	return s.opSeq
}

// kindName labels a segmented message kind for the observer.
func kindName(kind packet.MessageKind) string {
	if kind == packet.KindRPCWrite {
		return "RPC_WRITE"
	}
	return "WRITE"
}

// instrumentMsg binds a message to the observer for completion tracking.
func (s *Stack) instrumentMsg(opID uint64, kind string, msg *outMessage) {
	if s.obs == nil {
		return
	}
	msg.obs = s.obs
	msg.obsID = opID
	s.obs.PostedOp(msg.qpn, opID, kind)
}

// --- requester verbs ------------------------------------------------------

// PostWrite issues an RDMA WRITE of data to remoteVA under the QP's
// exchanged rkey, with no deadline: PostWriteStream with the whole
// payload as its first piece. done fires when the remote NIC
// acknowledges the last packet. Every frame is encoded before PostWrite
// returns (retransmissions resend the stored frames), so the caller may
// reuse data as soon as it does; the same holds for every segmented post
// below and for WriteStream.Feed.
func (s *Stack) PostWrite(qpn uint32, remoteVA uint64, data []byte, done func(error)) error {
	_, err := s.PostWriteStream(qpn, remoteVA, 0, len(data), data, 0, done)
	return err
}

// WriteStream is a posted WRITE or RPC WRITE whose payload is still
// arriving (see PostWriteStream). The message owns its PSNs from the
// post on; Feed turns each further piece into frames.
type WriteStream outMessage

// PostWriteStream posts an RDMA WRITE of n bytes to remoteVA whose
// payload may still be crossing PCIe: first holds the bytes that have
// arrived, the rest follows through Feed, in order (first may be the
// whole payload). The message reserves its n-byte PSN range now and each
// segment leaves when its bytes are there, so the first frame is on the
// wire while the last is still in host memory. Every piece but the last
// must be a whole number of MTU payloads.
//
// rkey 0 stamps the QP's exchanged key (SetRemoteRKey), itself 0 — the
// wildcard key — unless one was exchanged. deadline is an absolute
// sim-time (zero: none): if the remote acknowledgement has not arrived
// by then, done fires with an error wrapping sim.ErrDeadlineExceeded
// while the frames already on the wire keep draining through go-back-N,
// leaving the PSN space whole. Every post below takes the same two.
func (s *Stack) PostWriteStream(qpn uint32, remoteVA uint64, rkey uint32, n int, first []byte, deadline sim.Time, done func(error)) (*WriteStream, error) {
	return s.postSegmented(qpn, packet.KindWrite, packet.RETH{VirtualAddress: remoteVA, RKey: rkey, DMALength: uint32(n)}, first, deadline, done)
}

// PostRPCWriteStream posts an RDMA RPC WRITE: n bytes streamed to the
// remote kernel selected by rpcOp (§5.1), fed like PostWriteStream.
func (s *Stack) PostRPCWriteStream(qpn uint32, rpcOp uint64, n int, first []byte, deadline sim.Time, done func(error)) (*WriteStream, error) {
	return s.postSegmented(qpn, packet.KindRPCWrite, packet.RETH{VirtualAddress: rpcOp, DMALength: uint32(n)}, first, deadline, done)
}

// Feed hands the stream its next piece. A piece for a message the QP has
// flushed meanwhile (reset, error, crash) is dropped: nothing of a
// flushed message leaves. One whose verb merely timed out is still sent,
// like the frames a deadline leaves on the wire, to keep the PSN space
// whole.
func (w *WriteStream) Feed(data []byte) {
	m := (*outMessage)(w)
	m.owner.feed(&m.owner.st.qps[m.qpn], m, packet.RETH{}, data)
}

// Abort ends a stream whose source failed (the DMA fetch returned an
// error mid-message). The PSNs of the missing segments cannot be taken
// back, so this is the IB local-access error: the QP moves to ERROR and
// every outstanding verb on it, this one included, completes with
// ErrQPError wrapping cause. A no-op once the message is flushed or
// fully fed.
func (w *WriteStream) Abort(cause error) {
	m := (*outMessage)(w)
	s, st := m.owner, &m.owner.st.qps[m.qpn]
	if s.unfed(st, m) < len(st.pending) {
		s.moveToError(m.qpn, st, fmt.Errorf("payload fetch failed: %w", cause))
	}
}

func (s *Stack) postSegmented(qpn uint32, kind packet.MessageKind, reth packet.RETH, first []byte, deadline sim.Time, done func(error)) (*WriteStream, error) {
	st, err := s.st.get(qpn)
	if err != nil {
		return nil, err
	}
	if err := s.sendable(st); err != nil {
		return nil, err
	}
	if kind == packet.KindWrite && reth.RKey == 0 {
		// Default to the QP's exchanged remote key; RPC writes carry the
		// RPC op-code in the RETH address field and never use keys.
		reth.RKey = st.remoteRKey
	}
	// Validate before creating any message state so invalid segmentation
	// parameters leave no observer or deadline state behind.
	if err := packet.ValidateSegmentation(kind, s.cfg.MTUPayload); err != nil {
		return nil, err
	}
	opID := s.newOp(st)
	nseg := packet.NumSegments(int(reth.DMALength), s.cfg.MTUPayload)
	msg := &outMessage{kind: kind, owner: s, complete: done, qpn: qpn, nseg: uint32(nseg)}
	s.stats.OpsPosted++
	s.instrumentMsg(opID, kindName(kind), msg)
	s.armDeadline(msg, deadline)
	// The message takes its place in the PSN order now, one entry per
	// segment; feed fills the entries in as the payload arrives.
	for i := 0; i < nseg; i++ {
		pp := s.newPending()
		pp.psn, pp.npsn, pp.msg, pp.lastOf = psnAdd(st.nextPSN, uint32(i)), 1, msg, i == nseg-1
		st.pending = append(st.pending, pp)
	}
	st.nextPSN = psnAdd(st.nextPSN, uint32(nseg))
	s.feed(st, msg, reth, first)
	s.armTimer(qpn, st)
	return (*WriteStream)(msg), nil
}

// unfed returns the index in st.pending of m's first segment still
// waiting for its payload, len(st.pending) when there is none. Entries
// are filled in order and nothing ahead of the send cursor is unfilled,
// so for the oldest message in flight this is the cursor itself.
func (s *Stack) unfed(st *qpState, m *outMessage) int {
	i := st.sent
	for i < len(st.pending) && (st.pending[i].msg != m || st.pending[i].frame != nil) {
		i++
	}
	return i
}

// feed encodes the next piece of m's payload into its pending entries,
// one segment per MTU payload, and pumps each out. reth is read for
// segment 0 only.
func (s *Stack) feed(st *qpState, m *outMessage, reth packet.RETH, data []byte) {
	i := s.unfed(st, m)
	if i == len(st.pending) && m.seg < m.nseg {
		return // flushed
	}
	mtu := s.cfg.MTUPayload
	for ; ; i++ {
		if m.seg == m.nseg {
			panic("roce: WriteStream fed past its posted length")
		}
		seg := data[:min(mtu, len(data))]
		data = data[len(seg):]
		p := st.pending[i]
		s.fill(st, p, packet.FillSegmentAt(&s.txPkt, m.kind, st.remoteQPN, p.psn, reth, seg, int(m.seg), int(m.nseg)))
		m.seg++
		s.pump(m.qpn, st)
		if len(data) == 0 {
			if len(seg) < mtu && m.seg < m.nseg {
				panic("roce: a piece before the last must be a whole number of MTU payloads")
			}
			return
		}
	}
}

// newPending takes a pendingPacket from the free list (see freePending).
func (s *Stack) newPending() *pendingPacket {
	if n := len(s.ppFree); n > 0 {
		p := s.ppFree[n-1]
		s.ppFree[n-1] = nil
		s.ppFree = s.ppFree[:n-1]
		return p
	}
	return &pendingPacket{}
}

// freePending recycles an entry the ACK path removed from a pending
// list. Only entries no longer reachable from any qpState may be freed.
func (s *Stack) freePending(p *pendingPacket) {
	*p = pendingPacket{}
	if len(s.ppFree) < 1<<14 {
		s.ppFree = append(s.ppFree, p)
	}
}

// PostRPC issues an RDMA RPC: a single Params packet carrying the kernel
// op-code (in the RETH address field) and its parameters.
func (s *Stack) PostRPC(qpn uint32, rpcOp uint64, params []byte, deadline sim.Time, done func(error)) error {
	st, err := s.st.get(qpn)
	if err != nil {
		return err
	}
	if err := s.sendable(st); err != nil {
		return err
	}
	opID := s.newOp(st)
	pkt, err := packet.RPCParams(st.remoteQPN, st.nextPSN, rpcOp, params, s.cfg.MTUPayload)
	if err != nil {
		return err
	}
	msg := &outMessage{owner: s, complete: done, qpn: qpn}
	s.stats.OpsPosted++
	s.instrumentMsg(opID, "RPC", msg)
	s.armDeadline(msg, deadline)
	st.nextPSN = psnAdd(st.nextPSN, 1)
	s.enqueue(qpn, st, pkt, 1, msg)
	s.armTimer(qpn, st)
	return nil
}

// PostRead issues an RDMA READ of n bytes at remoteVA. Response chunks
// stream into sink in order; done fires once the last chunk's ack ran.
// The read occupies one Multi-Queue element until completion and consumes
// one PSN per expected response packet ("an RDMA READ operation requires
// the length of the response in advance to pre-calculate the number of
// expected packets and their sequence numbers", §5.1).
func (s *Stack) PostRead(qpn uint32, remoteVA uint64, rkey uint32, n int, deadline sim.Time, sink ReadSink, done func(error)) error {
	st, err := s.st.get(qpn)
	if err != nil {
		return err
	}
	if err := s.sendable(st); err != nil {
		return err
	}
	if rkey == 0 {
		rkey = st.remoteRKey
	}
	opID := s.newOp(st)
	npsn := uint32(packet.NumSegments(n, s.cfg.MTUPayload))
	msg := &outMessage{isRead: true, owner: s, complete: done, qpn: qpn}
	elem, err := s.mq.push(qpn, mqElement{
		FirstPSN: st.nextPSN,
		LastPSN:  psnAdd(st.nextPSN, npsn-1),
		Length:   n,
		Sink:     sink,
		Msg:      msg,
		nextPSN:  st.nextPSN,
	})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTooManyReads, err)
	}
	elem.ack = func() {
		elem.inFlight--
		s.maybeCompleteRead(elem)
	}
	s.stats.OpsPosted++
	s.instrumentMsg(opID, "READ", msg)
	s.armDeadline(msg, deadline)
	pkt := packet.ReadRequest(st.remoteQPN, st.nextPSN, packet.RETH{VirtualAddress: remoteVA, RKey: rkey, DMALength: uint32(n)})
	st.nextPSN = psnAdd(st.nextPSN, npsn)
	elem.ReqFrame = s.enqueue(qpn, st, pkt, npsn, msg).frame
	s.armTimer(qpn, st)
	return nil
}

// SetRemoteRKey installs the default rkey stamped on this QP's posted
// writes and reads when the caller passes RKey 0. It models the rkey
// exchange step of connection setup and survives QP resets (the key
// belongs to the peer's memory, not to this QP's reliability state).
func (s *Stack) SetRemoteRKey(qpn, rkey uint32) error {
	st, err := s.st.get(qpn)
	if err != nil {
		return err
	}
	st.remoteRKey = rkey
	return nil
}

// RemoteRKey returns the default rkey installed by SetRemoteRKey (0 when
// none was exchanged).
func (s *Stack) RemoteRKey(qpn uint32) uint32 {
	st, err := s.st.get(qpn)
	if err != nil {
		return 0
	}
	return st.remoteRKey
}

// --- receive path ---------------------------------------------------------

// DeliverFrame is the fabric-facing entry point: the frame flows through
// the RX pipeline (store-and-forward for ICRC validation at one data-path
// word per cycle, then the parsing/PSN-check stages). The stack takes
// ownership of the frame and recycles its buffer after processing.
func (s *Stack) DeliverFrame(frame []byte) {
	end := s.rxPath.Reserve(s.cfg.Cycles(s.words(frame)))
	s.rxq.Push(frame)
	s.eng.ScheduleAt(end.Add(s.cfg.Cycles(s.cfg.RxFixedCycles)), s.rxDrainFn)
}

// drainRx processes the oldest frame queued into the RX pipeline (RX
// completion times are non-decreasing in push order; see sim.FIFO).
func (s *Stack) drainRx() { s.process(s.rxq.Pop()) }

func (s *Stack) process(frame []byte) {
	// The parse lives in the stack's scratch packet and its payload
	// aliases the frame buffer, so nothing allocates per packet; every
	// consumer that outlives this call (DMA writes, kernel dispatch)
	// copies the bytes it keeps before the frame returns to the pool.
	defer packet.PutBuf(frame)
	s.stats.RxBytes += uint64(len(frame))
	pkt := &s.rxPkt
	err := packet.DecodeInto(pkt, frame)
	if err != nil {
		// The Packet Dropper discards malformed packets; reliability
		// recovers via retransmission.
		s.stats.RxDiscarded++
		s.logf("discard", "discard: %v", err)
		return
	}
	s.stats.RxPackets++
	if s.tb != nil {
		s.tb.Instant(s.pid, traceTidRx, "wire", pkt.BTH.Opcode.String(), pkt.String())
	}
	st, err := s.st.get(pkt.BTH.DestQP)
	if err != nil {
		s.stats.RxDiscarded++
		s.logf("discard", "discard %v: %v", pkt, err)
		return
	}
	if s.frozen || st.state != QPStateRTS {
		// A crashed NIC or a QP outside RTS drops everything; stale
		// frames must not resurrect flushed reliability state.
		s.stats.RxDiscarded++
		return
	}
	op := pkt.BTH.Opcode
	if pkt.ECN == packet.ECNCE {
		// A switch on the path CE-marked this frame: note it and (when
		// DCQCN is on) reflect a CNP back to the sender.
		s.stats.EcnMarkedRx++
		if op != packet.OpCNP {
			s.noteCongestion(st)
		}
	}
	switch {
	case op == packet.OpCNP:
		s.handleCNP(pkt.BTH.DestQP, st)
	case op == packet.OpAcknowledge:
		s.handleAck(pkt.BTH.DestQP, st, pkt)
	case op.IsReadResponse():
		s.handleReadResponse(pkt.BTH.DestQP, st, pkt)
	default:
		s.handleRequest(pkt.BTH.DestQP, st, pkt)
	}
}

// --- responder ------------------------------------------------------------

func (s *Stack) handleRequest(qpn uint32, st *qpState, pkt *packet.Packet) {
	d := psnDiff(pkt.BTH.PSN, st.ePSN)
	switch {
	case d > 0:
		// Invalid region: a gap. Drop and NAK once (go-back-N).
		s.stats.RxOutOfOrder++
		if !st.nakSent {
			st.nakSent = true
			s.stats.NaksSent++
			s.sendTransient(st, s.ackPkt.SetAck(st.remoteQPN, st.ePSN, packet.SynNAKSequence, st.msn))
		}
		return
	case d < 0:
		// Duplicate region: acknowledge but do not re-execute writes;
		// re-execute reads (they are idempotent and the response may
		// have been lost).
		s.stats.RxDuplicates++
		if pkt.BTH.Opcode == packet.OpReadRequest {
			// The cache window is enforced by age here, not by sweep
			// timing, so hits are a deterministic function of the PSN
			// distance alone.
			if rr, ok := st.recentRds[pkt.BTH.PSN]; ok && -d <= int32(8*s.cfg.ReadDepthPerQP) {
				s.stats.DupReadCacheHits++
				// Re-validate with the original rkey: the region may have
				// been deregistered or restamped since the first execution,
				// and a cached duplicate must not outlive its protection.
				if s.valid != nil {
					reth := packet.RETH{VirtualAddress: rr.va, RKey: rr.rkey, DMALength: uint32(rr.n)}
					if err := s.valid.ValidateRemote(qpn, packet.OpReadRequest, reth); err != nil {
						s.nakRemoteAccess(st, pkt.BTH.PSN)
						return
					}
				}
				if s.obs != nil {
					s.obs.RespExec(qpn, pkt.BTH.PSN, 0, pkt.BTH.Opcode, true)
				}
				s.executeRead(qpn, st, rr.va, rr.n, rr.resp, true)
			} else {
				s.stats.DupReadCacheMiss++
			}
			return
		}
		s.sendTransient(st, s.ackPkt.SetAck(st.remoteQPN, psnAdd(st.ePSN, psnMask), packet.SynACK, st.msn))
		s.stats.AcksSent++
		return
	}
	// Valid: validate memory protection, then execute and advance the
	// expected PSN. A protection violation NAKs without advancing ePSN or
	// touching the handler, so no DMA is issued and a retransmit of the
	// same request (after a lost NAK) lands back here and is re-NAKed.
	op := pkt.BTH.Opcode
	if s.valid != nil && pkt.RETH != nil && (op.IsWrite() || op == packet.OpReadRequest) {
		if err := s.valid.ValidateRemote(qpn, op, *pkt.RETH); err != nil {
			s.logf("remote-access", "remote access rejected qp=%d psn=%d: %v", qpn, pkt.BTH.PSN, err)
			s.nakRemoteAccess(st, pkt.BTH.PSN)
			return
		}
	}
	st.nakSent = false
	if s.obs != nil {
		npsn := uint32(1)
		if op == packet.OpReadRequest {
			npsn = uint32(packet.NumSegments(int(pkt.RETH.DMALength), s.cfg.MTUPayload))
		}
		s.obs.RespExec(qpn, pkt.BTH.PSN, npsn, op, false)
	}
	switch {
	case op.IsWrite():
		s.execWrite(qpn, st, pkt)
	case op.IsRPCWrite():
		s.execRPCWrite(qpn, st, pkt)
	case op == packet.OpRPCParams:
		s.execRPCParams(qpn, st, pkt)
	case op == packet.OpReadRequest:
		n := int(pkt.RETH.DMALength)
		npsn := uint32(packet.NumSegments(n, s.cfg.MTUPayload))
		rr := recentRead{va: pkt.RETH.VirtualAddress, n: n, resp: pkt.BTH.PSN, rkey: pkt.RETH.RKey}
		st.recentRds[pkt.BTH.PSN] = rr
		if len(st.recentRds) > 16*s.cfg.ReadDepthPerQP {
			// Bounded cache, like the on-chip structure it models. Stale
			// entries are rejected at lookup by age, so this sweep only
			// bounds memory and runs rarely (amortized O(1) per read).
			for k := range st.recentRds {
				if psnDiff(st.ePSN, k) > int32(8*s.cfg.ReadDepthPerQP) {
					delete(st.recentRds, k)
				}
			}
		}
		st.ePSN = psnAdd(st.ePSN, npsn)
		st.msn = (st.msn + 1) & psnMask
		s.executeRead(qpn, st, rr.va, n, rr.resp, false)
	}
}

// nakRemoteAccess rejects a request that failed memory protection. The
// expected PSN is deliberately left alone: go-back-N will retransmit
// from the rejected request, and each retransmission is re-NAKed until
// the requester's QP lands in ERROR.
func (s *Stack) nakRemoteAccess(st *qpState, psn uint32) {
	s.stats.NaksSent++
	s.stats.NaksRemoteAccess++
	s.sendTransient(st, s.ackPkt.SetAck(st.remoteQPN, psn, packet.SynNAKRemoteAccess, st.msn))
}

func (s *Stack) execWrite(qpn uint32, st *qpState, pkt *packet.Packet) {
	op := pkt.BTH.Opcode
	var va uint64
	if pkt.RETH != nil {
		va = pkt.RETH.VirtualAddress
	} else {
		va = st.curVA
	}
	st.curVA = va + uint64(len(pkt.Payload))
	st.ePSN = psnAdd(st.ePSN, 1)
	last := op == packet.OpWriteLast || op == packet.OpWriteOnly
	s.handler.HandleWrite(qpn, va, pkt.Payload, last)
	if last {
		st.msn = (st.msn + 1) & psnMask
	}
	if pkt.BTH.AckReq {
		s.stats.AcksSent++
		s.sendTransient(st, s.ackPkt.SetAck(st.remoteQPN, pkt.BTH.PSN, packet.SynACK, st.msn))
	}
}

func (s *Stack) execRPCWrite(qpn uint32, st *qpState, pkt *packet.Packet) {
	op := pkt.BTH.Opcode
	if pkt.RETH != nil {
		// The RETH address field carries the RPC op-code (§5.1).
		st.curRPCOp = pkt.RETH.VirtualAddress
	}
	st.ePSN = psnAdd(st.ePSN, 1)
	last := op == packet.OpRPCWriteLast || op == packet.OpRPCWriteOnly
	err := s.handler.HandleRPCWrite(qpn, st.curRPCOp, pkt.Payload, last)
	if err != nil {
		s.stats.NaksSent++
		s.sendTransient(st, s.ackPkt.SetAck(st.remoteQPN, pkt.BTH.PSN, packet.SynNAKInvalid, st.msn))
		return
	}
	if last {
		st.msn = (st.msn + 1) & psnMask
	}
	if pkt.BTH.AckReq {
		s.stats.AcksSent++
		s.sendTransient(st, s.ackPkt.SetAck(st.remoteQPN, pkt.BTH.PSN, packet.SynACK, st.msn))
	}
}

func (s *Stack) execRPCParams(qpn uint32, st *qpState, pkt *packet.Packet) {
	st.ePSN = psnAdd(st.ePSN, 1)
	err := s.handler.HandleRPCParams(qpn, pkt.RETH.VirtualAddress, pkt.Payload)
	if err != nil {
		// No matching kernel and no CPU fallback: error back to the
		// requesting node (§5.1).
		s.stats.NaksSent++
		s.sendTransient(st, s.ackPkt.SetAck(st.remoteQPN, pkt.BTH.PSN, packet.SynNAKInvalid, st.msn))
		return
	}
	st.msn = (st.msn + 1) & psnMask
	s.stats.AcksSent++
	s.sendTransient(st, s.ackPkt.SetAck(st.remoteQPN, pkt.BTH.PSN, packet.SynACK, st.msn))
}

// readServing is one READ being served: deliver is called with the data
// in consecutive pieces and a response frame leaves for every MTU
// payload of them. Records are recycled, their deliver bound once, so a
// serving allocates nothing however many pieces it takes.
type readServing struct {
	s         *Stack
	st        *qpState
	qpn       uint32
	respPSN   uint32
	seg, nseg int
	n         int    // bytes served so far
	sum       uint64 // running CRC64 of them, for the observer
	dup       bool
	deliver   func([]byte, error)
}

func (s *Stack) executeRead(qpn uint32, st *qpState, va uint64, n int, respPSN uint32, dup bool) {
	var r *readServing
	if k := len(s.rsFree); k > 0 {
		r, s.rsFree = s.rsFree[k-1], s.rsFree[:k-1]
	} else {
		r = &readServing{s: s}
		r.deliver = r.piece
	}
	r.st, r.qpn, r.respPSN, r.dup = st, qpn, respPSN, dup
	r.seg, r.nseg, r.n, r.sum = 0, packet.NumSegments(n, s.cfg.MTUPayload), 0, 0
	s.handler.HandleReadRequest(qpn, va, n, r.deliver)
}

// piece sends the response frames of the next piece of a READ's data.
func (r *readServing) piece(data []byte, err error) {
	s, st := r.s, r.st
	if err != nil {
		s.stats.NaksSent++
		s.sendTransient(st, s.ackPkt.SetAck(st.remoteQPN, psnAdd(r.respPSN, uint32(r.seg)), packet.SynNAKInvalid, st.msn))
		s.rsFree = append(s.rsFree, r)
		return
	}
	if r.dup && s.dbg.CorruptDupRead && r.n == 0 && len(data) > 0 {
		// Deliberate protocol bug (checker validation): the duplicate
		// serving is no longer bit-identical to the original.
		data = append([]byte(nil), data...)
		data[0] ^= 0x01
	}
	if s.obs != nil {
		r.sum = crc.Append64(r.sum, data)
	}
	r.n += len(data)
	mtu := s.cfg.MTUPayload
	for {
		seg := data[:min(mtu, len(data))]
		data = data[len(seg):]
		s.sendTransient(st, packet.FillReadResponseAt(&s.txPkt, st.remoteQPN, psnAdd(r.respPSN, uint32(r.seg)), st.msn, seg, r.seg, r.nseg))
		r.seg++
		if len(data) == 0 {
			if len(seg) < mtu && r.seg < r.nseg {
				panic("roce: a piece before the last must be a whole number of MTU payloads")
			}
			break
		}
		if r.seg == r.nseg {
			panic("roce: READ handler delivered more than was requested")
		}
	}
	if r.seg == r.nseg {
		if s.obs != nil {
			s.obs.RespReadData(r.qpn, r.respPSN, r.sum, r.n)
		}
		s.rsFree = append(s.rsFree, r)
	}
}

// --- requester completion -------------------------------------------------

func (s *Stack) handleAck(qpn uint32, st *qpState, pkt *packet.Packet) {
	st.progress++
	switch pkt.AETH.Syndrome {
	case packet.SynACK:
		s.stats.AcksReceived++
		s.ackUpTo(qpn, st, pkt.BTH.PSN)
	case packet.SynNAKSequence:
		// The remote expects pkt.PSN next: everything before is
		// implicitly acknowledged; retransmit the rest (go-back-N).
		s.stats.NaksReceived++
		s.ackUpTo(qpn, st, psnAdd(pkt.BTH.PSN, psnMask))
		for _, p := range st.pending[:st.sent] {
			s.retransmitFrame(qpn, st, p.frame)
		}
		s.armTimer(qpn, st)
	case packet.SynNAKInvalid:
		s.stats.NaksReceived++
		s.failPSN(qpn, st, pkt.BTH.PSN)
	case packet.SynNAKRemoteAccess:
		// A memory-protection NAK is transport-fatal on the requester, per
		// the IB remote-access error class: the QP moves to ERROR, flushing
		// every outstanding verb with ErrQPError wrapping ErrRemoteAccess.
		// The application resets/reconnects and re-fetches the rkey.
		s.stats.NaksReceived++
		s.moveToError(qpn, st, ErrRemoteAccess)
	}
}

// ackUpTo completes sent request packets with end PSN <= psn. The
// pending list is a FIFO in PSN order (posts only ever append increasing
// PSNs), so a cumulative acknowledgement removes a prefix; popping just
// that prefix keeps ACK processing O(1) amortised even with hundreds of
// thousands of packets in flight.
func (s *Stack) ackUpTo(qpn uint32, st *qpState, psn uint32) {
	k := 0
	for k < st.sent && psnGE(psn, st.pending[k].endPSN()) {
		p := st.pending[k]
		if p.lastOf && !p.isRead {
			p.msg.finish(nil)
		}
		st.pending[k] = nil // release the frame for GC
		s.freePending(p)
		k++
	}
	if k > 0 {
		st.pending = st.pending[k:]
		st.sent -= k
	}
	st.retries = 0
	s.armTimer(qpn, st)
}

// failPSN fails the message owning the packet with the given PSN. A NAK
// against a READ request is a remote access fault — the responder could
// not serve the memory region — which the IB spec classes as fatal: the
// whole QP moves to ERROR. NAKs against RPC/write packets stay
// per-operation failures (the paper's stack writes an error code back
// without tearing down the connection, §5.1).
func (s *Stack) failPSN(qpn uint32, st *qpState, psn uint32) {
	for _, p := range st.pending {
		if p.isRead && psnGE(psn, p.psn) && psnGE(p.endPSN(), psn) {
			s.moveToError(qpn, st, ErrRemoteInvalid)
			return
		}
	}
	// Only what has been sent can have been refused or accepted; segments
	// still waiting for their payload stay, the failed message's too —
	// their PSNs are taken and must reach the wire.
	unsent := st.pending[st.sent:]
	keep := st.pending[:0]
	for _, p := range st.pending[:st.sent] {
		covers := psnGE(psn, p.psn) && psnGE(p.endPSN(), psn)
		if covers || p.msg.done {
			p.msg.finish(ErrRemoteInvalid)
			continue
		}
		if psnLT(p.endPSN(), psn) {
			// Earlier packets were accepted by the responder.
			if p.lastOf && !p.isRead {
				p.msg.finish(nil)
			}
			continue
		}
		keep = append(keep, p)
	}
	st.sent = len(keep)
	st.pending = append(keep, unsent...)
	s.armTimer(qpn, st)
}

func (s *Stack) handleReadResponse(qpn uint32, st *qpState, pkt *packet.Packet) {
	head, ok := s.mq.head(qpn)
	if !ok {
		s.stats.RxDiscarded++
		return
	}
	if pkt.BTH.PSN != head.nextPSN {
		if psnLT(pkt.BTH.PSN, head.nextPSN) {
			s.stats.RxDuplicates++ // stale data from a re-executed read
		} else {
			s.stats.RxOutOfOrder++ // gap: timeout will re-request
		}
		return
	}
	st.progress++
	off := head.offset
	chunk := pkt.Payload
	head.nextPSN = psnAdd(head.nextPSN, 1)
	head.offset += len(chunk)
	elem := head
	elem.inFlight++
	if elem.Sink != nil {
		elem.Sink(off, chunk, elem.ack)
	} else {
		elem.inFlight--
	}
	if pkt.BTH.PSN == head.LastPSN {
		head.sawLast = true
		done, err := s.mq.popHead(qpn)
		if err == nil {
			// The response acknowledges the read request packet.
			s.removeReadPending(st, done.FirstPSN)
			s.armTimer(qpn, st)
			s.maybeCompleteRead(done)
			// Cumulative acknowledgement for earlier requests.
			s.ackUpTo(qpn, st, psnAdd(done.FirstPSN, psnMask))
		}
	}
}

func (s *Stack) maybeCompleteRead(e *mqElement) {
	if e.sawLast && e.inFlight == 0 {
		e.Msg.finish(nil)
	}
}

func (s *Stack) removeReadPending(st *qpState, firstPSN uint32) {
	keep := st.pending[:0]
	for i, p := range st.pending {
		if p.isRead && p.psn == firstPSN {
			if i < st.sent {
				st.sent--
			}
			continue
		}
		keep = append(keep, p)
	}
	st.pending = keep
}

// --- retransmission timer ---------------------------------------------------

// armTimer arms the per-QP retransmission timer when work is outstanding
// and none is armed; it cancels the timer when the QP goes idle. A timer
// already ticking is left alone — expiry re-checks the QP's activity
// counter, so the timer only fires after a full quiet interval (hardware
// timers restarted on activity), without rescheduling per packet.
func (s *Stack) armTimer(qpn uint32, st *qpState) {
	if len(st.pending) == 0 && s.mq.len(qpn) == 0 {
		s.timers[qpn].Cancel()
		s.timers[qpn] = sim.Event{}
		return
	}
	if s.timers[qpn].Pending() {
		return
	}
	snap := st.progress
	s.timers[qpn] = s.eng.Schedule(s.cfg.RetransTimeout, func() { s.onTimeout(qpn, st, snap) })
}

func (s *Stack) onTimeout(qpn uint32, st *qpState, snap uint64) {
	s.timers[qpn] = sim.Event{}
	if len(st.pending) == 0 && s.mq.len(qpn) == 0 {
		return
	}
	if st.progress != snap {
		// The QP was active during the interval: not a loss, re-arm.
		s.armTimer(qpn, st)
		return
	}
	s.stats.Timeouts++
	if s.tb != nil {
		s.tb.Instant(s.pid, traceTidRetrans, "reliability", "timeout", fmt.Sprintf("qp=%d retries=%d", qpn, st.retries+1))
	}
	st.retries++
	if s.obs != nil {
		s.obs.Timeout(qpn, st.retries, len(st.pending)+s.mq.len(qpn))
	}
	if st.retries > s.cfg.MaxRetries {
		// Retry exhaustion is transport-fatal: the QP moves to ERROR and
		// every outstanding operation — not just the timed-out head —
		// completes with a typed error (see recovery.go).
		s.moveToError(qpn, st, ErrRetryExceeded)
		return
	}
	// Go-back-N: resend every unacknowledged request packet; incomplete
	// reads are re-requested (the responder re-executes them and the
	// requester discards already-received response PSNs).
	for _, p := range st.pending[:st.sent] {
		s.retransmitFrame(qpn, st, p.frame)
	}
	s.mq.each(qpn, func(e *mqElement) {
		if !e.sawLast && !s.hasPending(st, e.FirstPSN) {
			s.retransmitFrame(qpn, st, e.ReqFrame)
		}
	})
	s.armTimer(qpn, st)
}

func (s *Stack) hasPending(st *qpState, psn uint32) bool {
	for _, p := range st.pending {
		if p.psn == psn {
			return true
		}
	}
	return false
}
