package packet

import "testing"

// The encode/decode scratch paths are the per-packet core of the
// simulator: every simulated frame goes through them, so a single
// allocation here multiplies by hundreds of thousands per experiment.
// These guards pin them at exactly zero allocations per packet.

func TestAllocsEncodeDecodeRoundTrip(t *testing.T) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	var tx, rx Packet
	frame := GetBuf()
	allocs := testing.AllocsPerRun(1000, func() {
		p := FillSegment(&tx, KindWrite, 7, 42, RETH{VirtualAddress: 0x1000, RKey: 0x0101, DMALength: 256}, payload, PathMTUPayload, 0, 1)
		frame = p.EncodeTo(frame[:0])
		if err := DecodeInto(&rx, frame); err != nil {
			t.Fatal(err)
		}
		if rx.BTH.PSN != 42 || len(rx.Payload) != 256 {
			t.Fatalf("round trip mangled packet: %+v", rx.BTH)
		}
	})
	PutBuf(frame)
	if allocs != 0 {
		t.Fatalf("encode/decode round trip allocates %v times per packet, want 0", allocs)
	}
}

func TestAllocsAckPath(t *testing.T) {
	var ack, rx Packet
	frame := GetBuf()
	allocs := testing.AllocsPerRun(1000, func() {
		p := ack.SetAck(3, 99, SynACK, 12)
		frame = p.EncodeTo(frame[:0])
		if err := DecodeInto(&rx, frame); err != nil {
			t.Fatal(err)
		}
		if rx.AETH == nil || rx.AETH.MSN != 12 {
			t.Fatalf("ack round trip mangled AETH: %+v", rx.AETH)
		}
	})
	PutBuf(frame)
	if allocs != 0 {
		t.Fatalf("ack path allocates %v times per packet, want 0", allocs)
	}
}

func TestAllocsReadResponseFill(t *testing.T) {
	payload := make([]byte, 4096)
	var scratch Packet
	n := NumSegments(len(payload), PathMTUPayload)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < n; i++ {
			lo := i * PathMTUPayload
			seg := payload[lo:min(lo+PathMTUPayload, len(payload))]
			p := FillReadResponseAt(&scratch, 5, uint32(100+i), 3, seg, i, n)
			if p.BTH.PSN != uint32(100+i) {
				t.Fatalf("segment %d PSN %d", i, p.BTH.PSN)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("read-response fill allocates %v times per message, want 0", allocs)
	}
}

func TestAllocsBufPool(t *testing.T) {
	// The pool wraps slices so neither Get nor Put boxes a slice header.
	// Warm the pool first: steady-state recycling must be allocation-free.
	PutBuf(make([]byte, 0, 2048))
	allocs := testing.AllocsPerRun(1000, func() {
		b := GetBuf()
		b = append(b, 1, 2, 3)
		PutBuf(b)
	})
	if allocs != 0 {
		t.Fatalf("buffer pool allocates %v times per get/put cycle, want 0", allocs)
	}
}
