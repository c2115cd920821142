package roce

import (
	"testing"

	"strom/internal/fabric"
	"strom/internal/raceflag"
)

// writeAllocs measures heap allocations per completed write of size
// bytes, averaged over rounds messages on a warmed stack pair.
func writeAllocs(t *testing.T, size, rounds int) float64 {
	t.Helper()
	p := newPair(t, 1, Config10G(), fabric.DirectCable10G())
	data := make([]byte, size)
	post := func(n int) {
		done := 0
		p.eng.Schedule(0, func() {
			for i := 0; i < n; i++ {
				p.a.PostWrite(1, 0, data, func(error) { done++ })
			}
		})
		p.eng.Run()
		if done != n {
			t.Fatalf("completed %d/%d writes", done, n)
		}
	}
	// Warm-up: grow the pending lists, frame pool, and event free list to
	// steady state so the measurement sees only per-operation cost.
	post(rounds)
	return testing.AllocsPerRun(rounds, func() { post(1) })
}

// TestAllocsWritePathPerPacket guards the zero-alloc packet path: the
// marginal cost of an extra packet in a message must be at most the one
// retained requester frame. That frame stays off the pool, for two
// reasons. Inside the stack, the pending entry is not its only holder:
// a retransmission queued in the TX pipeline, or a DCQCN-paced dispatch
// closure, can still reference it after the ACK frees the entry, so
// returning it on ACK needs a count of in-flight dispatches per frame.
// Outside the stack, the contract "transmit copies the frame" is not
// kept by every caller: benchmark/layers.go wires two bare stacks
// through a closure that hands the peer the very buffer the sender
// still holds, and the peer recycles it after RX — reusing the buffer
// on the sending side as well would let two live frames share memory.
// Everything else — segmentation, encode, fabric hop,
// decode, DMA hand-off, ACK generation, completion — is allocation-free
// per packet, so a 45-packet message may cost at most ~45 allocations
// more than a 1-packet one. A regression that adds even one allocation
// per packet doubles the slope and fails loudly.
func TestAllocsWritePathPerPacket(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	mtu := Config10G().MTUPayload
	const pkts = 45
	small := writeAllocs(t, 64, 200)       // 1 packet
	large := writeAllocs(t, pkts*mtu, 100) // 45 packets
	slope := (large - small) / float64(pkts-1)
	t.Logf("allocs/op: 1-packet=%.2f %d-packet=%.2f slope=%.3f allocs/packet", small, pkts, large, slope)
	if slope > 1.5 {
		t.Fatalf("write path allocates %.3f times per packet (want <= 1.5: the retained requester frame only)", slope)
	}
	if small > 8 {
		t.Fatalf("single-packet write allocates %.1f times (want <= 8: per-message records only)", small)
	}
}
