package packet

import "fmt"

// PathMTUPayload is the per-packet payload StRoM uses on an Ethernet MTU
// of 1500: large enough to keep header overhead low (the 9.4 Gbit/s ideal
// goodput in Fig. 5b), aligned to the widest (64 B) data path.
const PathMTUPayload = 1408

// MessageKind selects the verb family a message is segmented into.
type MessageKind int

// Message kinds.
const (
	KindWrite    MessageKind = iota // RDMA WRITE
	KindRPCWrite                    // RDMA RPC WRITE (payload forwarded to kernel)
)

// segOpcodes maps a message kind to its First/Middle/Last/Only opcodes.
func segOpcodes(kind MessageKind) (first, middle, last, only Opcode, err error) {
	switch kind {
	case KindWrite:
		return OpWriteFirst, OpWriteMiddle, OpWriteLast, OpWriteOnly, nil
	case KindRPCWrite:
		return OpRPCWriteFirst, OpRPCWriteMiddle, OpRPCWriteLast, OpRPCWriteOnly, nil
	default:
		return 0, 0, 0, 0, fmt.Errorf("packet: unknown message kind %d", kind)
	}
}

// ValidateSegmentation vets the (kind, MTU) pair before a segmentation
// loop built on FillSegment, so hot paths can fail fast without
// creating any per-message state.
func ValidateSegmentation(kind MessageKind, mtuPayload int) error {
	if mtuPayload <= 0 {
		return fmt.Errorf("packet: invalid MTU payload %d", mtuPayload)
	}
	_, _, _, _, err := segOpcodes(kind)
	return err
}

// FillSegment builds segment i of n (n = NumSegments(len(payload),
// mtuPayload)) of a message held whole into scratch: FillSegmentAt on
// the i-th MTU payload of it, the PSN incrementing per segment.
func FillSegment(scratch *Packet, kind MessageKind, destQP uint32, psn uint32, reth RETH, payload []byte, mtuPayload, i, n int) *Packet {
	lo := i * mtuPayload
	hi := min(lo+mtuPayload, len(payload))
	return FillSegmentAt(scratch, kind, destQP, (psn+uint32(i))&0xFFFFFF, reth, payload[lo:hi], i, n)
}

// FillSegmentAt builds segment i of an n-segment message into scratch,
// reusing its inline RETH storage: the allocation-free core of the TX
// segmentation path, for a sender that holds the message one segment at
// a time (the rest is still crossing PCIe). psn and seg are segment i's
// own PSN and payload. Arguments must have passed ValidateSegmentation.
// The RETH travels on the first packet only: reth is read for segment 0.
// The payload aliases seg; the scratch packet is only valid until the
// next fill on it — the TX pipeline encodes it immediately.
func FillSegmentAt(scratch *Packet, kind MessageKind, destQP uint32, psn uint32, reth RETH, seg []byte, i, n int) *Packet {
	first, middle, last, only, _ := segOpcodes(kind)
	var op Opcode
	switch {
	case n == 1:
		op = only
	case i == 0:
		op = first
	case i == n-1:
		op = last
	default:
		op = middle
	}
	scratch.Reset()
	scratch.BTH = BTH{Opcode: op, DestQP: destQP, PSN: psn, AckReq: i == n-1}
	scratch.Payload = seg
	if op.HasRETH() {
		scratch.rethStore = reth
		scratch.RETH = &scratch.rethStore
	}
	return scratch
}

// FillReadRequest builds an RDMA READ Request packet into scratch.
func FillReadRequest(scratch *Packet, destQP, psn uint32, reth RETH) *Packet {
	scratch.Reset()
	scratch.BTH = BTH{Opcode: OpReadRequest, DestQP: destQP, PSN: psn, AckReq: true}
	scratch.rethStore = reth
	scratch.RETH = &scratch.rethStore
	return scratch
}

// FillRPCParams builds the single-packet RDMA RPC Params message (§5.1)
// into scratch: the RETH address field carries the RPC op-code and the
// payload, which aliases params, the kernel parameters (at most one MTU).
func FillRPCParams(scratch *Packet, destQP, psn uint32, rpcOpcode uint64, params []byte, mtuPayload int) (*Packet, error) {
	if len(params) > mtuPayload {
		return nil, fmt.Errorf("packet: RPC params %d bytes exceed one MTU payload (%d)", len(params), mtuPayload)
	}
	scratch.Reset()
	scratch.BTH = BTH{Opcode: OpRPCParams, DestQP: destQP, PSN: psn, AckReq: true}
	scratch.rethStore = RETH{VirtualAddress: rpcOpcode, DMALength: uint32(len(params))}
	scratch.RETH = &scratch.rethStore
	scratch.Payload = params
	return scratch, nil
}

// FillReadResponseAt builds READ-response segment i of n into scratch,
// reusing its inline AETH storage — the allocation-free core of the
// responder read path, which holds the data one segment at a time. psn
// and seg are segment i's own. The payload aliases seg; the scratch
// packet is only valid until the next fill on it (the responder encodes
// it immediately).
func FillReadResponseAt(scratch *Packet, destQP, psn uint32, msn uint32, seg []byte, i, n int) *Packet {
	var op Opcode
	switch {
	case n == 1:
		op = OpReadRespOnly
	case i == 0:
		op = OpReadRespFirst
	case i == n-1:
		op = OpReadRespLast
	default:
		op = OpReadRespMiddle
	}
	scratch.Reset()
	scratch.BTH = BTH{Opcode: op, DestQP: destQP, PSN: psn}
	scratch.Payload = seg
	if op.HasAETH() {
		scratch.aethStore = AETH{Syndrome: SynACK, MSN: msn}
		scratch.AETH = &scratch.aethStore
	}
	return scratch
}

// NumSegments reports how many packets a payload of length n segments into.
func NumSegments(n, mtuPayload int) int {
	if n == 0 {
		return 1
	}
	return (n + mtuPayload - 1) / mtuPayload
}
