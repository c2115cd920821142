package packet

import (
	"runtime"
	"testing"

	"strom/internal/raceflag"
)

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
	// The free list stores slices in a slice, so neither Get nor Put
	// boxes a slice header. Warm it first: steady-state recycling must be
	// allocation-free.
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

// TestAllocsFramePoolSurvivesGC pins what a sync.Pool could not give
// the frame free list: buffers stay listed across collections and a
// change of GOMAXPROCS (which moves the simulation goroutine to other
// Ps), so a warm process takes every frame from the list. Each benchmark
// round runs the collector first; a pool emptied by it, or regrowing its
// per-P rings, allocated 294-582 B per warm 64 KiB verb.
func TestAllocsFramePoolSurvivesGC(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; allocation counts are only meaningful without -race")
	}
	const n = 256
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = GetBuf()
	}
	for _, b := range bufs {
		PutBuf(b)
	}
	runtime.GC()
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1 + runtime.GOMAXPROCS(0)%2))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range bufs {
		bufs[i] = GetBuf()
	}
	for _, b := range bufs {
		PutBuf(append(b, 1))
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Errorf("%d GetBuf/PutBuf cycles after two collections and a GOMAXPROCS change allocate %d times, want 0", n, got)
	}
}
