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

// TestAllocsWritePathPerPacket guards the zero-alloc packet path: an
// extra packet in a message costs no allocation at all. Segmentation,
// encode into a pooled frame, the pooled copy each (re)transmission
// hands over to the fabric, the fabric hop, decode, DMA hand-off, ACK
// generation and completion all recycle their buffers and records, and
// the retained request frame goes back to the pool when its pending
// entry is freed. A regression that adds even one allocation per
// packet puts the slope at 1 and fails loudly.
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
	if slope > 0.1 {
		t.Fatalf("write path allocates %.3f times per packet (want <= 0.1: none)", slope)
	}
	if small > 8 {
		t.Fatalf("single-packet write allocates %.1f times (want <= 8: per-message records only)", small)
	}
}
