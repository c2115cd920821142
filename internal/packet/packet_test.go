package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func samplePacket(op Opcode, payloadLen int) *Packet {
	p := &Packet{
		DstMAC:  MAC{0x02, 0, 0, 0, 0, 2},
		SrcMAC:  MAC{0x02, 0, 0, 0, 0, 1},
		SrcIP:   AddrOf(10, 0, 0, 1),
		DstIP:   AddrOf(10, 0, 0, 2),
		SrcPort: 1234,
		DstPort: RoCEPort,
		BTH:     BTH{Opcode: op, DestQP: 7, PSN: 99, AckReq: true, PKey: 0xFFFF},
	}
	if op.HasRETH() {
		p.RETH = &RETH{VirtualAddress: 0xDEADBEEF00, RKey: 42, DMALength: uint32(payloadLen)}
	}
	if op.HasAETH() {
		p.AETH = &AETH{Syndrome: SynACK, MSN: 17}
	}
	if op.HasPayload() && payloadLen > 0 {
		p.Payload = make([]byte, payloadLen)
		rand.New(rand.NewSource(int64(payloadLen))).Read(p.Payload)
	}
	return p
}

func packetsEqual(a, b *Packet) bool {
	if a.BTH != b.BTH || a.SrcIP != b.SrcIP || a.DstIP != b.DstIP {
		return false
	}
	if (a.RETH == nil) != (b.RETH == nil) || (a.AETH == nil) != (b.AETH == nil) {
		return false
	}
	if a.RETH != nil && *a.RETH != *b.RETH {
		return false
	}
	if a.AETH != nil && *a.AETH != *b.AETH {
		return false
	}
	return bytes.Equal(a.Payload, b.Payload)
}

func TestEncodeDecodeRoundTripAllOpcodes(t *testing.T) {
	ops := []Opcode{
		OpWriteFirst, OpWriteMiddle, OpWriteLast, OpWriteOnly,
		OpReadRequest, OpReadRespFirst, OpReadRespMiddle, OpReadRespLast,
		OpReadRespOnly, OpAcknowledge,
		OpRPCParams, OpRPCWriteFirst, OpRPCWriteMiddle, OpRPCWriteLast, OpRPCWriteOnly,
	}
	for _, op := range ops {
		for _, n := range []int{0, 1, 7, 64, 1408} {
			if !op.HasPayload() && n > 0 {
				continue
			}
			in := samplePacket(op, n)
			buf := in.Encode()
			out, err := Decode(buf)
			if err != nil {
				t.Fatalf("%v payload=%d: decode: %v", op, n, err)
			}
			if !packetsEqual(in, out) {
				t.Errorf("%v payload=%d: round trip mismatch\nin:  %v\nout: %v", op, n, in, out)
			}
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(payload []byte, qp, psn uint32, va uint64) bool {
		if len(payload) > PathMTUPayload {
			payload = payload[:PathMTUPayload]
		}
		in := samplePacket(OpWriteOnly, 0)
		in.BTH.DestQP = qp & 0xFFFFFF
		in.BTH.PSN = psn & 0xFFFFFF
		in.RETH.VirtualAddress = va
		in.Payload = payload
		in.RETH.DMALength = uint32(len(payload))
		out, err := Decode(in.Encode())
		return err == nil && packetsEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinFrameSizes(t *testing.T) {
	// An ACK is the smallest frame the stack emits: 14+20+8+12+4+4 = 62
	// bytes in the buffer, just above the 60-byte Ethernet minimum.
	p := samplePacket(OpAcknowledge, 0)
	buf := p.Encode()
	if len(buf) != 62 {
		t.Errorf("ACK frame = %d bytes, want 62", len(buf))
	}
	out, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !packetsEqual(p, out) {
		t.Error("round trip mismatch")
	}
	if p.WireBytes() != 62+EthFramingOverhead {
		t.Errorf("WireBytes = %d", p.WireBytes())
	}
	// Frames smaller than the minimum would be padded; BufferLen clamps.
	if MinFrameLen != 60 {
		t.Errorf("MinFrameLen = %d", MinFrameLen)
	}
}

func TestICRCDetectsCorruption(t *testing.T) {
	p := samplePacket(OpWriteOnly, 256)
	buf := p.Encode()
	rng := rand.New(rand.NewSource(9))
	ibStart := EthHeaderLen + IPv4HeaderLen + UDPHeaderLen
	for i := 0; i < 200; i++ {
		pos := ibStart + rng.Intn(len(buf)-ibStart)
		bit := byte(1) << rng.Intn(8)
		buf[pos] ^= bit
		if _, err := Decode(buf); err == nil {
			t.Fatalf("corruption at byte %d undetected", pos)
		}
		buf[pos] ^= bit
	}
	if _, err := Decode(buf); err != nil {
		t.Fatalf("restored packet fails: %v", err)
	}
}

func TestIPChecksumDetectsHeaderCorruption(t *testing.T) {
	p := samplePacket(OpWriteOnly, 64)
	buf := p.Encode()
	buf[EthHeaderLen+8] ^= 0xFF // TTL
	if _, err := Decode(buf); err != ErrIPChecksum {
		t.Errorf("err = %v, want ErrIPChecksum", err)
	}
}

// ipChecksumBy16 is the textbook form of the IPv4 header checksum, ten
// 16-bit loads, kept as the reference for the 32-bit-word ipChecksum.
func ipChecksumBy16(h []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(h); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(h[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

func TestIPChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := make([]byte, IPv4HeaderLen)
	check := func() {
		t.Helper()
		if got, want := ipChecksum(h), ipChecksumBy16(h); got != want {
			t.Fatalf("ipChecksum(%x) = %#04x, reference %#04x", h, got, want)
		}
	}
	// The extremes: every carry there is, and none.
	for _, fill := range []byte{0x00, 0xFF, 0x80, 0x01} {
		for i := range h {
			h[i] = fill
		}
		check()
	}
	for i := 0; i < 100_000; i++ {
		rng.Read(h)
		check()
		// With its checksum filled in, a header sums to zero.
		h[10], h[11] = 0, 0
		binary.BigEndian.PutUint16(h[10:12], ipChecksum(h))
		if ipChecksum(h) != 0 {
			t.Fatalf("header %x does not verify", h)
		}
	}
}

func BenchmarkIPChecksum(b *testing.B) {
	h := make([]byte, IPv4HeaderLen)
	rand.New(rand.NewSource(1)).Read(h)
	var acc uint16
	for i := 0; i < b.N; i++ {
		h[4] = byte(i)
		acc += ipChecksum(h)
	}
	_ = acc
}

func TestDecodeRejectsWrongPort(t *testing.T) {
	p := samplePacket(OpWriteOnly, 64)
	p.DstPort = 80
	if _, err := Decode(p.Encode()); err != ErrNotRoCE {
		t.Errorf("err = %v, want ErrNotRoCE", err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	p := samplePacket(OpWriteOnly, 512)
	buf := p.Encode()
	for _, n := range []int{0, 10, 40, 60} {
		if _, err := Decode(buf[:n]); err == nil {
			t.Errorf("truncated to %d bytes accepted", n)
		}
	}
}

func TestDecodeRejectsUnknownOpcode(t *testing.T) {
	p := samplePacket(OpRPCParams, 8)
	p.BTH.Opcode = Opcode(0x1D) // reserved
	// Re-encode: reserved op-codes have no defined header layout, but the
	// decoder must reject before interpreting anything.
	buf := p.Encode()
	if _, err := Decode(buf); err != ErrUnknownOp {
		t.Errorf("err = %v, want ErrUnknownOp", err)
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !OpRPCParams.IsStRoM() || OpWriteOnly.IsStRoM() {
		t.Error("IsStRoM wrong")
	}
	if !OpWriteFirst.HasRETH() || OpWriteMiddle.HasRETH() || !OpRPCWriteOnly.HasRETH() {
		t.Error("HasRETH wrong")
	}
	if OpReadRequest.HasPayload() || OpAcknowledge.HasPayload() {
		t.Error("HasPayload wrong")
	}
	if !OpAcknowledge.HasAETH() || !OpReadRespOnly.HasAETH() || OpReadRespMiddle.HasAETH() {
		t.Error("HasAETH wrong")
	}
	if !OpWriteOnly.IsLast() || OpWriteFirst.IsLast() || !OpWriteLast.IsLast() {
		t.Error("IsLast wrong")
	}
	if !OpWriteFirst.IsFirst() || OpWriteOnly.IsFirst() {
		t.Error("IsFirst wrong")
	}
	if Opcode(0x1D).Valid() || Opcode(0xFF).Valid() || !OpReadRequest.Valid() {
		t.Error("Valid wrong")
	}
}

func TestTable1Matches(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("Table 1 has %d rows", len(rows))
	}
	want := map[string]Opcode{
		"11000": 0x18, "11001": 0x19, "11010": 0x1A, "11011": 0x1B, "11100": 0x1C,
	}
	for _, r := range rows {
		if want[r.Bits] != r.Code {
			t.Errorf("bits %s -> %#02x, want %#02x", r.Bits, uint8(r.Code), uint8(want[r.Bits]))
		}
		if !r.Code.IsStRoM() {
			t.Errorf("%v not recognised as StRoM", r.Code)
		}
	}
}

func TestWords(t *testing.T) {
	// A full-MTU frame: ~1500 buffer bytes -> 176 words at 8 B, 22 at 64 B
	// (the §7.1 store-and-forward comparison). Our buffer for a 1408 B
	// middle segment is 14+20+8+12+1408+4 = 1466 -> 184/23 words; the
	// ratio (8x) is what matters.
	p := samplePacket(OpWriteMiddle, 1408)
	w8, w64 := p.Words(8), p.Words(64)
	if w8 != (p.BufferLen()+7)/8 || w64 != (p.BufferLen()+63)/64 {
		t.Errorf("words = %d/%d", w8, w64)
	}
	if w8 < 7*w64 || w8 > 9*w64 {
		t.Errorf("word ratio %d:%d not ~8:1", w8, w64)
	}
}

func TestSegmentSinglePacket(t *testing.T) {
	payload := make([]byte, 100)
	pkts, err := Segment(KindWrite, 3, 50, RETH{VirtualAddress: 0x1000, DMALength: 100}, payload, PathMTUPayload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 {
		t.Fatalf("%d packets", len(pkts))
	}
	if pkts[0].BTH.Opcode != OpWriteOnly || pkts[0].RETH == nil || pkts[0].BTH.PSN != 50 {
		t.Errorf("packet = %v", pkts[0])
	}
}

func TestSegmentMultiPacket(t *testing.T) {
	payload := make([]byte, PathMTUPayload*3+10)
	pkts, err := Segment(KindRPCWrite, 3, 0xFFFFFE, RETH{VirtualAddress: 7}, payload, PathMTUPayload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 4 {
		t.Fatalf("%d packets", len(pkts))
	}
	wantOps := []Opcode{OpRPCWriteFirst, OpRPCWriteMiddle, OpRPCWriteMiddle, OpRPCWriteLast}
	wantPSN := []uint32{0xFFFFFE, 0xFFFFFF, 0, 1} // 24-bit wraparound
	total := 0
	for i, p := range pkts {
		if p.BTH.Opcode != wantOps[i] {
			t.Errorf("pkt %d op = %v, want %v", i, p.BTH.Opcode, wantOps[i])
		}
		if p.BTH.PSN != wantPSN[i] {
			t.Errorf("pkt %d psn = %#x, want %#x", i, p.BTH.PSN, wantPSN[i])
		}
		if (p.RETH != nil) != (i == 0) {
			t.Errorf("pkt %d RETH presence wrong", i)
		}
		if p.BTH.AckReq != (i == len(pkts)-1) {
			t.Errorf("pkt %d AckReq wrong", i)
		}
		total += len(p.Payload)
	}
	if total != len(payload) {
		t.Errorf("total payload = %d", total)
	}
}

func TestSegmentReassembly(t *testing.T) {
	f := func(data []byte) bool {
		pkts, err := Segment(KindWrite, 1, 0, RETH{}, data, 257)
		if err != nil {
			return false
		}
		var got []byte
		for _, p := range pkts {
			got = append(got, p.Payload...)
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSegmentErrors(t *testing.T) {
	if _, err := Segment(KindWrite, 1, 0, RETH{}, nil, 0); err == nil {
		t.Error("zero MTU accepted")
	}
	if _, err := Segment(MessageKind(99), 1, 0, RETH{}, nil, 100); err == nil {
		t.Error("bad kind accepted")
	}
}

func TestRPCParamsPacket(t *testing.T) {
	params := []byte{1, 2, 3, 4}
	p, err := RPCParams(5, 10, 0xAB, params, PathMTUPayload)
	if err != nil {
		t.Fatal(err)
	}
	if p.BTH.Opcode != OpRPCParams || p.RETH.VirtualAddress != 0xAB {
		t.Errorf("packet = %v", p)
	}
	if _, err := RPCParams(5, 10, 1, make([]byte, PathMTUPayload+1), PathMTUPayload); err == nil {
		t.Error("oversized params accepted")
	}
}

func TestReadResponseSegmentation(t *testing.T) {
	data := make([]byte, PathMTUPayload*2+5)
	pkts := ReadResponse(2, 7, 1, data, PathMTUPayload)
	if len(pkts) != 3 {
		t.Fatalf("%d packets", len(pkts))
	}
	if pkts[0].BTH.Opcode != OpReadRespFirst || pkts[0].AETH == nil {
		t.Error("first response wrong")
	}
	if pkts[1].BTH.Opcode != OpReadRespMiddle || pkts[1].AETH != nil {
		t.Error("middle response wrong")
	}
	if pkts[2].BTH.Opcode != OpReadRespLast || pkts[2].AETH == nil {
		t.Error("last response wrong")
	}
	one := ReadResponse(2, 7, 1, []byte{1}, PathMTUPayload)
	if len(one) != 1 || one[0].BTH.Opcode != OpReadRespOnly {
		t.Error("single response wrong")
	}
}

func TestNumSegments(t *testing.T) {
	cases := []struct{ n, mtu, want int }{
		{0, 100, 1}, {1, 100, 1}, {100, 100, 1}, {101, 100, 2}, {1000, 100, 10},
	}
	for _, c := range cases {
		if got := NumSegments(c.n, c.mtu); got != c.want {
			t.Errorf("NumSegments(%d,%d) = %d, want %d", c.n, c.mtu, got, c.want)
		}
	}
}

func TestAddressFormatting(t *testing.T) {
	if got := AddrOf(192, 168, 1, 2).String(); got != "192.168.1.2" {
		t.Errorf("IP = %s", got)
	}
	m := MAC{0xAA, 0xBB, 0xCC, 0, 1, 2}
	if got := m.String(); got != "aa:bb:cc:00:01:02" {
		t.Errorf("MAC = %s", got)
	}
}

func TestAckHelper(t *testing.T) {
	a := Ack(9, 100, SynNAKSequence, 55)
	out, err := Decode(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.AETH.Syndrome != SynNAKSequence || out.AETH.MSN != 55 || out.BTH.PSN != 100 {
		t.Errorf("ack = %v", out)
	}
}

func BenchmarkEncode1408(b *testing.B) {
	p := samplePacket(OpWriteMiddle, 1408)
	b.SetBytes(int64(p.BufferLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Encode()
	}
}

func BenchmarkDecode1408(b *testing.B) {
	buf := samplePacket(OpWriteMiddle, 1408).Encode()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
