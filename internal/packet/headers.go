package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"strom/internal/crc"
)

// Header and framing sizes in bytes.
const (
	EthHeaderLen  = 14
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	BTHLen        = 12
	RETHLen       = 16
	AETHLen       = 4
	ICRCLen       = 4

	// EthFramingOverhead is the per-frame wire overhead that never
	// appears in the byte buffer: preamble+SFD (8), FCS (4), and the
	// inter-frame gap (12).
	EthFramingOverhead = 8 + 4 + 12

	// MinFrameLen is the minimum Ethernet frame (without FCS).
	MinFrameLen = 60

	// RoCEPort is the IANA UDP destination port for RoCE v2.
	RoCEPort = 4791

	// EtherTypeIPv4 identifies IPv4 in the Ethernet header.
	EtherTypeIPv4 = 0x0800
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in the usual colon notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4 is a 32-bit IP address in host order.
type IPv4 uint32

// String formats the address in dotted-quad notation.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// AddrOf builds an IPv4 from four octets.
func AddrOf(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// BTH is the Infiniband Base Transport Header.
type BTH struct {
	Opcode Opcode
	PadCnt uint8  // bytes of payload padding (0-3)
	PKey   uint16 // partition key
	DestQP uint32 // destination queue pair number (24 bits)
	AckReq bool   // responder should schedule an ACK
	PSN    uint32 // packet sequence number (24 bits)
}

// RETH is the RDMA Extended Transport Header: virtual address, remote key
// and DMA length. StRoM reuses the address field as the RPC op-code for
// the RPC verbs (§5.1).
type RETH struct {
	VirtualAddress uint64
	RKey           uint32
	DMALength      uint32
}

// AETH is the ACK Extended Transport Header.
type AETH struct {
	Syndrome uint8  // 0 = ACK; NAK codes otherwise
	MSN      uint32 // message sequence number (24 bits)
}

// AETH syndrome values used by the stack.
const (
	SynACK             = 0x00
	SynNAKSequence     = 0x60 // PSN sequence error → go-back-N
	SynNAKInvalid      = 0x61 // invalid request (e.g. no matching kernel)
	SynNAKRemoteAccess = 0x62 // memory protection violation (rkey/bounds/permission)
)

// ECN codepoints carried in the two low bits of the IPv4 TOS byte
// (RFC 3168). The simulated stack transmits Not-ECT (the byte stays
// zero, keeping historical frames bit-identical); a congested switch
// sets CE in flight and patches the IPv4 header checksum, which is
// legal mid-path because the ICRC covers only the IB transport portion.
const ECNCE uint8 = 3 // congestion experienced

// Packet is a fully parsed RoCE v2 packet. Optional headers are nil when
// absent. Payload excludes all headers and the ICRC.
type Packet struct {
	// Ethernet
	DstMAC, SrcMAC MAC
	// IPv4
	SrcIP, DstIP IPv4
	TTL          uint8
	ECN          uint8 // ECN codepoint (TOS low bits)
	// UDP
	SrcPort, DstPort uint16
	// Infiniband
	BTH     BTH
	RETH    *RETH
	AETH    *AETH
	Payload []byte

	// Inline storage for the optional headers, used by DecodeInto and
	// SetAck so a reused scratch Packet parses and builds packets
	// without allocating. RETH/AETH point here when set by those paths.
	rethStore RETH
	aethStore AETH
}

// SetAck fills p as an ACK (or NAK, depending on syndrome) packet,
// reusing p's inline AETH storage (responder scratch packets).
func (p *Packet) SetAck(destQP, psn uint32, syndrome uint8, msn uint32) *Packet {
	p.Reset()
	p.BTH = BTH{Opcode: OpAcknowledge, DestQP: destQP, PSN: psn}
	p.aethStore = AETH{Syndrome: syndrome, MSN: msn}
	p.AETH = &p.aethStore
	return p
}

// SetCNP fills p as a Congestion Notification Packet aimed at the
// remote queue pair destQP. CNPs carry no extended headers and no
// payload, sit outside the PSN space, and are never retransmitted —
// they are the NP→RP half of the DCQCN loop.
func (p *Packet) SetCNP(destQP uint32) *Packet {
	p.Reset()
	p.BTH = BTH{Opcode: OpCNP, DestQP: destQP}
	return p
}

// Reset clears p for reuse without dropping its inline header storage.
func (p *Packet) Reset() {
	*p = Packet{}
}

// ibLen returns the length of the IB portion (BTH..ICRC).
func (p *Packet) ibLen() int {
	n := BTHLen
	if p.RETH != nil {
		n += RETHLen
	}
	if p.AETH != nil {
		n += AETHLen
	}
	return n + len(p.Payload) + ICRCLen
}

// BufferLen returns the encoded length in the frame buffer (no preamble,
// FCS or IFG), padded to the Ethernet minimum.
func (p *Packet) BufferLen() int {
	n := EthHeaderLen + IPv4HeaderLen + UDPHeaderLen + p.ibLen()
	if n < MinFrameLen {
		n = MinFrameLen
	}
	return n
}

// WriteFrameLen returns the BufferLen of a single-packet RDMA WRITE of n
// payload bytes — the length a fabric.FaultInjector sees it by.
func WriteFrameLen(n int) int {
	return (&Packet{RETH: &RETH{}}).BufferLen() + n // the headers alone exceed MinFrameLen
}

// Words returns the number of data-path words (of width wordBytes) the
// packet occupies inside the NIC pipeline — e.g. 176 words for a full MTU
// at 8 B versus 22 at 64 B (§7.1).
func (p *Packet) Words(wordBytes int) int {
	n := p.BufferLen()
	return (n + wordBytes - 1) / wordBytes
}

// Encode serializes the packet, computing the IPv4 checksum and the ICRC.
func (p *Packet) Encode() []byte { return p.EncodeTo(nil) }

// EncodeTo serializes the packet into buf, reusing its capacity when
// large enough (buf may be nil or empty; pair with GetBuf/PutBuf to
// recycle frame buffers). The returned slice aliases buf's backing
// array when capacity sufficed. Every byte of the returned frame is
// written, including the minimum-frame padding, so recycled buffers
// never leak stale bytes into encoded frames.
func (p *Packet) EncodeTo(buf []byte) []byte {
	n := p.BufferLen()
	if cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	// Ethernet.
	copy(buf[0:6], p.DstMAC[:])
	copy(buf[6:12], p.SrcMAC[:])
	binary.BigEndian.PutUint16(buf[12:14], EtherTypeIPv4)
	// IPv4.
	ip := buf[EthHeaderLen:]
	totalLen := IPv4HeaderLen + UDPHeaderLen + p.ibLen()
	ip[0] = 0x45      // version 4, IHL 5
	ip[1] = p.ECN & 3 // DSCP zero; ECN codepoint in the low bits
	binary.BigEndian.PutUint16(ip[2:4], uint16(totalLen))
	binary.BigEndian.PutUint16(ip[4:6], 0) // identification
	binary.BigEndian.PutUint16(ip[6:8], 0x4000)
	ttl := p.TTL
	if ttl == 0 {
		ttl = 64
	}
	ip[8] = ttl
	ip[9] = 17 // UDP
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint32(ip[12:16], uint32(p.SrcIP))
	binary.BigEndian.PutUint32(ip[16:20], uint32(p.DstIP))
	binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip[:IPv4HeaderLen]))
	// UDP.
	udp := ip[IPv4HeaderLen:]
	sp := p.SrcPort
	if sp == 0 {
		sp = RoCEPort
	}
	dp := p.DstPort
	if dp == 0 {
		dp = RoCEPort
	}
	binary.BigEndian.PutUint16(udp[0:2], sp)
	binary.BigEndian.PutUint16(udp[2:4], dp)
	binary.BigEndian.PutUint16(udp[4:6], uint16(UDPHeaderLen+p.ibLen()))
	binary.BigEndian.PutUint16(udp[6:8], 0) // checksum unused (ICRC covers IB)
	// BTH.
	ib := udp[UDPHeaderLen:]
	ib[0] = uint8(p.BTH.Opcode)
	ib[1] = (p.BTH.PadCnt & 3) << 4 // SE/M zero; TVer zero
	binary.BigEndian.PutUint16(ib[2:4], p.BTH.PKey)
	binary.BigEndian.PutUint32(ib[4:8], p.BTH.DestQP&0xFFFFFF)
	psn := p.BTH.PSN & 0xFFFFFF
	if p.BTH.AckReq {
		psn |= 1 << 31
	}
	binary.BigEndian.PutUint32(ib[8:12], psn)
	off := BTHLen
	// RETH.
	if p.RETH != nil {
		binary.BigEndian.PutUint64(ib[off:off+8], p.RETH.VirtualAddress)
		binary.BigEndian.PutUint32(ib[off+8:off+12], p.RETH.RKey)
		binary.BigEndian.PutUint32(ib[off+12:off+16], p.RETH.DMALength)
		off += RETHLen
	}
	// AETH.
	if p.AETH != nil {
		binary.BigEndian.PutUint32(ib[off:off+4], uint32(p.AETH.Syndrome)<<24|p.AETH.MSN&0xFFFFFF)
		off += AETHLen
	}
	copy(ib[off:], p.Payload)
	off += len(p.Payload)
	// ICRC over the IB transport headers and payload.
	icrc := crc.Checksum32(ib[:off])
	binary.BigEndian.PutUint32(ib[off:off+4], icrc)
	// Zero the minimum-frame padding (reused buffers carry old bytes).
	for i := EthHeaderLen + totalLen; i < n; i++ {
		buf[i] = 0
	}
	return buf
}

// Decode errors.
var (
	ErrTruncated  = errors.New("packet: truncated")
	ErrNotIPv4    = errors.New("packet: not IPv4")
	ErrNotUDP     = errors.New("packet: not UDP")
	ErrNotRoCE    = errors.New("packet: not RoCE v2 (wrong UDP port)")
	ErrIPChecksum = errors.New("packet: bad IPv4 header checksum")
	ErrBadICRC    = errors.New("packet: bad ICRC")
	ErrBadPayload = errors.New("packet: inconsistent payload length")
	ErrUnknownOp  = errors.New("packet: unknown opcode")
)

// Decode parses an encoded frame. It performs exactly the checks the RX
// pipeline performs: IPv4 checksum, UDP port, ICRC (§4.1). The returned
// packet owns its payload (copied out of buf).
func Decode(buf []byte) (*Packet, error) {
	p := &Packet{}
	if err := DecodeInto(p, buf); err != nil {
		return nil, err
	}
	p.Payload = append([]byte(nil), p.Payload...)
	return p, nil
}

// DecodeInto parses an encoded frame into p without allocating: the
// optional headers land in p's inline storage and Payload aliases buf.
// This is the RX hot path — p is typically a per-stack scratch reused
// for every received frame. The parse is only valid until buf is
// recycled or p is reused; consumers that retain the payload must copy
// it first (the DMA and kernel-dispatch layers already do).
func DecodeInto(p *Packet, buf []byte) error {
	p.Reset()
	if len(buf) < EthHeaderLen+IPv4HeaderLen+UDPHeaderLen+BTHLen+ICRCLen {
		return ErrTruncated
	}
	copy(p.DstMAC[:], buf[0:6])
	copy(p.SrcMAC[:], buf[6:12])
	if binary.BigEndian.Uint16(buf[12:14]) != EtherTypeIPv4 {
		return ErrNotIPv4
	}
	ip := buf[EthHeaderLen:]
	if ip[0] != 0x45 {
		return ErrNotIPv4
	}
	if ipChecksum(ip[:IPv4HeaderLen]) != 0 {
		return ErrIPChecksum
	}
	if ip[9] != 17 {
		return ErrNotUDP
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen < IPv4HeaderLen+UDPHeaderLen+BTHLen+ICRCLen || EthHeaderLen+totalLen > len(buf) {
		return ErrTruncated
	}
	p.TTL = ip[8]
	p.ECN = ip[1] & 3
	p.SrcIP = IPv4(binary.BigEndian.Uint32(ip[12:16]))
	p.DstIP = IPv4(binary.BigEndian.Uint32(ip[16:20]))
	udp := ip[IPv4HeaderLen:]
	p.SrcPort = binary.BigEndian.Uint16(udp[0:2])
	p.DstPort = binary.BigEndian.Uint16(udp[2:4])
	if p.DstPort != RoCEPort {
		return ErrNotRoCE
	}
	udpLen := int(binary.BigEndian.Uint16(udp[4:6]))
	if udpLen != totalLen-IPv4HeaderLen {
		return ErrBadPayload
	}
	ib := udp[UDPHeaderLen:udpLen]
	// ICRC first: a corrupt packet must not be interpreted at all.
	wantICRC := binary.BigEndian.Uint32(ib[len(ib)-ICRCLen:])
	if crc.Checksum32(ib[:len(ib)-ICRCLen]) != wantICRC {
		return ErrBadICRC
	}
	// BTH.
	p.BTH.Opcode = Opcode(ib[0])
	p.BTH.PadCnt = (ib[1] >> 4) & 3
	p.BTH.PKey = binary.BigEndian.Uint16(ib[2:4])
	p.BTH.DestQP = binary.BigEndian.Uint32(ib[4:8]) & 0xFFFFFF
	w := binary.BigEndian.Uint32(ib[8:12])
	p.BTH.AckReq = w&(1<<31) != 0
	p.BTH.PSN = w & 0xFFFFFF
	off := BTHLen
	op := p.BTH.Opcode
	if !op.Valid() {
		return ErrUnknownOp
	}
	if op.HasRETH() {
		if len(ib) < off+RETHLen+ICRCLen {
			return ErrTruncated
		}
		p.rethStore = RETH{
			VirtualAddress: binary.BigEndian.Uint64(ib[off : off+8]),
			RKey:           binary.BigEndian.Uint32(ib[off+8 : off+12]),
			DMALength:      binary.BigEndian.Uint32(ib[off+12 : off+16]),
		}
		p.RETH = &p.rethStore
		off += RETHLen
	}
	if op.HasAETH() {
		if len(ib) < off+AETHLen+ICRCLen {
			return ErrTruncated
		}
		w := binary.BigEndian.Uint32(ib[off : off+4])
		p.aethStore = AETH{Syndrome: uint8(w >> 24), MSN: w & 0xFFFFFF}
		p.AETH = &p.aethStore
		off += AETHLen
	}
	p.Payload = ib[off : len(ib)-ICRCLen]
	if !op.HasPayload() && len(p.Payload) != 0 {
		return ErrBadPayload
	}
	return nil
}

// MarkCongestion sets the ECN Congestion Experienced codepoint on an
// already-encoded frame and repairs the IPv4 header checksum in place.
// The ICRC is untouched on purpose: it covers only the IB transport
// portion, exactly so that switches can mark ECN mid-flight without
// invalidating end-to-end integrity. Returns false when the buffer is
// too short to hold an IPv4 header.
func MarkCongestion(frame []byte) bool {
	if len(frame) < EthHeaderLen+IPv4HeaderLen {
		return false
	}
	ip := frame[EthHeaderLen : EthHeaderLen+IPv4HeaderLen]
	if ip[1]&3 == ECNCE {
		return true
	}
	ip[1] = ip[1]&^3 | ECNCE
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip))
	return true
}

// ipChecksum computes the 16-bit one's-complement checksum of the 20-byte
// IPv4 header h. Computing it over a header with the checksum field
// filled in yields 0. The header is summed as five 32-bit words: 2^16 is
// congruent to 1 modulo 2^16-1, so folding that sum down gives what
// adding the ten 16-bit words does, in half the loads.
func ipChecksum(h []byte) uint16 {
	_ = h[IPv4HeaderLen-1]
	sum := uint64(binary.BigEndian.Uint32(h[0:4])) +
		uint64(binary.BigEndian.Uint32(h[4:8])) +
		uint64(binary.BigEndian.Uint32(h[8:12])) +
		uint64(binary.BigEndian.Uint32(h[12:16])) +
		uint64(binary.BigEndian.Uint32(h[16:20]))
	sum = sum&0xFFFF + sum>>16&0xFFFF + sum>>32
	sum = sum&0xFFFF + sum>>16
	sum = sum&0xFFFF + sum>>16
	return ^uint16(sum)
}

// String summarises the packet for traces.
func (p *Packet) String() string {
	s := fmt.Sprintf("%s qp=%d psn=%d len=%d", p.BTH.Opcode, p.BTH.DestQP, p.BTH.PSN, len(p.Payload))
	if p.RETH != nil {
		s += fmt.Sprintf(" va=%#x dmalen=%d", p.RETH.VirtualAddress, p.RETH.DMALength)
	}
	if p.AETH != nil {
		s += fmt.Sprintf(" syn=%#02x msn=%d", p.AETH.Syndrome, p.AETH.MSN)
	}
	return s
}
