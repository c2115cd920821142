package packet

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzSeedFrames builds one valid encoded frame per packet shape the TX
// pipeline can emit, so the fuzzer starts from inputs that pass the ICRC
// and checksum gates instead of having to discover 4-byte trailers.
func fuzzSeedFrames() [][]byte {
	var frames [][]byte
	add := func(p *Packet) {
		p.SrcMAC = MAC{2, 0, 0, 0, 0, 1}
		p.DstMAC = MAC{2, 0, 0, 0, 0, 2}
		p.SrcIP = AddrOf(10, 0, 0, 1)
		p.DstIP = AddrOf(10, 0, 0, 2)
		frames = append(frames, p.Encode())
	}
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	reth := RETH{VirtualAddress: 0xdeadbeef, DMALength: uint32(len(payload))}
	if pkts, err := segment(KindWrite, 7, 100, reth, payload, PathMTUPayload); err == nil {
		for _, p := range pkts {
			add(p)
		}
	}
	if pkts, err := segment(KindRPCWrite, 7, 200, reth, payload[:64], PathMTUPayload); err == nil {
		for _, p := range pkts {
			add(p)
		}
	}
	add(FillReadRequest(&Packet{}, 7, 300, RETH{VirtualAddress: 0x1000, DMALength: 4096}))
	if p, err := FillRPCParams(&Packet{}, 7, 400, 0x2A, payload[:48], PathMTUPayload); err == nil {
		add(p)
	}
	add(new(Packet).SetAck(7, 500, SynACK, 12))
	add(new(Packet).SetAck(7, 501, SynNAKSequence, 12))
	for _, p := range readResponse(7, 600, 13, payload, PathMTUPayload) {
		add(p)
	}
	return frames
}

// FuzzHeaderRoundTrip asserts the parse/serialize contract on arbitrary
// frames: Decode never panics, and any frame it accepts must re-encode
// to a frame that decodes to the identical packet (and re-encodes to the
// identical bytes — the serializer is a fixed point after one round).
func FuzzHeaderRoundTrip(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, frame []byte) {
		pkt, err := Decode(frame)
		if err != nil {
			return // rejected by the Packet Dropper: only no-panic is asserted
		}
		enc := pkt.Encode()
		pkt2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if pkt.BTH != pkt2.BTH {
			t.Fatalf("BTH changed across round trip: %+v != %+v", pkt.BTH, pkt2.BTH)
		}
		if !reflect.DeepEqual(pkt.RETH, pkt2.RETH) || !reflect.DeepEqual(pkt.AETH, pkt2.AETH) {
			t.Fatalf("extension headers changed across round trip")
		}
		if !bytes.Equal(pkt.Payload, pkt2.Payload) {
			t.Fatalf("payload changed across round trip")
		}
		enc2 := pkt2.Encode()
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point after one round trip")
		}
	})
}
