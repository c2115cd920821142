// Package packet implements the wire formats StRoM processes: Ethernet,
// IPv4, UDP and the Infiniband headers carried over RoCE v2 (BTH, RETH,
// AETH), plus the ICRC trailer. Packets are really serialized to bytes
// and parsed back, so the simulated RoCE stack operates on the same
// representation the hardware pipeline sees.
package packet

import "fmt"

// Opcode is the 8-bit BTH op-code. The top three bits select the
// transport class (000 = Reliable Connection); the low five bits select
// the operation. StRoM adds the five op-codes of Table 1 in the RC space.
type Opcode uint8

// Reliable Connection op-codes used by StRoM (standard IB values).
const (
	OpWriteFirst  Opcode = 0x06 // RDMA WRITE First
	OpWriteMiddle Opcode = 0x07 // RDMA WRITE Middle
	OpWriteLast   Opcode = 0x08 // RDMA WRITE Last
	OpWriteOnly   Opcode = 0x0A // RDMA WRITE Only
	OpReadRequest Opcode = 0x0C // RDMA READ Request

	OpReadRespFirst  Opcode = 0x0D // RDMA READ Response First
	OpReadRespMiddle Opcode = 0x0E // RDMA READ Response Middle
	OpReadRespLast   Opcode = 0x0F // RDMA READ Response Last
	OpReadRespOnly   Opcode = 0x10 // RDMA READ Response Only

	OpAcknowledge Opcode = 0x11 // ACK / NAK (carries AETH)
)

// StRoM op-codes (Table 1): the RDMA RPC verb maps to one op-code, the
// RDMA RPC WRITE verb to four (First/Middle/Last/Only), mirroring the
// RDMA WRITE segmentation.
const (
	OpRPCParams      Opcode = 0x18 // 11000: RDMA RPC Params
	OpRPCWriteFirst  Opcode = 0x19 // 11001: RDMA RPC WRITE First
	OpRPCWriteMiddle Opcode = 0x1A // 11010: RDMA RPC WRITE Middle
	OpRPCWriteLast   Opcode = 0x1B // 11011: RDMA RPC WRITE Last
	OpRPCWriteOnly   Opcode = 0x1C // 11100: RDMA RPC WRITE Only

	opRPCReservedLo Opcode = 0x1D // 11101-11111 reserved
	opRPCReservedHi Opcode = 0x1F
)

// OpCNP is the RoCE v2 Congestion Notification Packet (CNP) op-code:
// transport class CNP (0x81). A CNP carries BTH only — no extended
// headers, no payload — and sits outside the PSN space, so it is never
// acknowledged or retransmitted. It is the NP→RP signal of DCQCN.
const OpCNP Opcode = 0x81

// String returns the op-code mnemonic.
func (o Opcode) String() string {
	switch o {
	case OpWriteFirst:
		return "WRITE_FIRST"
	case OpWriteMiddle:
		return "WRITE_MIDDLE"
	case OpWriteLast:
		return "WRITE_LAST"
	case OpWriteOnly:
		return "WRITE_ONLY"
	case OpReadRequest:
		return "READ_REQUEST"
	case OpReadRespFirst:
		return "READ_RESP_FIRST"
	case OpReadRespMiddle:
		return "READ_RESP_MIDDLE"
	case OpReadRespLast:
		return "READ_RESP_LAST"
	case OpReadRespOnly:
		return "READ_RESP_ONLY"
	case OpAcknowledge:
		return "ACKNOWLEDGE"
	case OpRPCParams:
		return "RPC_PARAMS"
	case OpRPCWriteFirst:
		return "RPC_WRITE_FIRST"
	case OpRPCWriteMiddle:
		return "RPC_WRITE_MIDDLE"
	case OpRPCWriteLast:
		return "RPC_WRITE_LAST"
	case OpRPCWriteOnly:
		return "RPC_WRITE_ONLY"
	case OpCNP:
		return "CNP"
	}
	if o >= opRPCReservedLo && o <= opRPCReservedHi {
		return fmt.Sprintf("RPC_RESERVED(%#02x)", uint8(o))
	}
	return fmt.Sprintf("OPCODE(%#02x)", uint8(o))
}

// Valid reports whether the op-code is one the StRoM NIC implements:
// the one-sided RC verbs plus the five Table 1 additions.
func (o Opcode) Valid() bool {
	switch {
	case o >= OpWriteFirst && o <= OpWriteLast, o == OpWriteOnly:
		return true
	case o >= OpReadRequest && o <= OpAcknowledge:
		return true
	case o.IsStRoM():
		return true
	case o == OpCNP:
		return true
	}
	return false
}

// IsStRoM reports whether the op-code is one of the five Table 1 additions.
func (o Opcode) IsStRoM() bool { return o >= OpRPCParams && o <= OpRPCWriteOnly }

// IsWrite reports whether the op-code is a plain RDMA WRITE segment.
func (o Opcode) IsWrite() bool {
	return o == OpWriteFirst || o == OpWriteMiddle || o == OpWriteLast || o == OpWriteOnly
}

// IsRPCWrite reports whether the op-code is an RDMA RPC WRITE segment.
func (o Opcode) IsRPCWrite() bool { return o >= OpRPCWriteFirst && o <= OpRPCWriteOnly }

// IsReadResponse reports whether the op-code is an RDMA READ response segment.
func (o Opcode) IsReadResponse() bool { return o >= OpReadRespFirst && o <= OpReadRespOnly }

// HasRETH reports whether packets with this op-code carry a RETH. Only the
// first (or only) segment of a message carries addressing information; the
// MSN Table tracks the running DMA address for the rest (§4.1).
func (o Opcode) HasRETH() bool {
	switch o {
	case OpWriteFirst, OpWriteOnly, OpReadRequest, OpRPCParams, OpRPCWriteFirst, OpRPCWriteOnly:
		return true
	}
	return false
}

// HasAETH reports whether packets with this op-code carry an AETH.
func (o Opcode) HasAETH() bool {
	switch o {
	case OpAcknowledge, OpReadRespFirst, OpReadRespLast, OpReadRespOnly:
		return true
	}
	return false
}

// HasPayload reports whether packets with this op-code carry payload.
func (o Opcode) HasPayload() bool {
	switch o {
	case OpReadRequest, OpAcknowledge, OpCNP:
		return false
	}
	return true
}

// Table1 describes the five new op-codes exactly as the paper's Table 1,
// for documentation output and the Table 1 regression test.
func Table1() []struct {
	Verb        string
	Bits        string
	Code        Opcode
	Description string
} {
	return []struct {
		Verb        string
		Bits        string
		Code        Opcode
		Description string
	}{
		{"RPC", "11000", OpRPCParams, "RDMA RPC Params"},
		{"RPC WRITE", "11001", OpRPCWriteFirst, "RDMA RPC WRITE First"},
		{"RPC WRITE", "11010", OpRPCWriteMiddle, "RDMA RPC WRITE Middle"},
		{"RPC WRITE", "11011", OpRPCWriteLast, "RDMA RPC WRITE Last"},
		{"RPC WRITE", "11100", OpRPCWriteOnly, "RDMA RPC WRITE Only"},
	}
}
