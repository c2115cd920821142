package core_test

import (
	"runtime"
	"testing"

	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/raceflag"
	"strom/internal/testrig"
)

const (
	bulkSize = 64 << 10 // one bulk transfer: 47 packets at the 100 G MTU
	bulkDst  = 2 << 20  // destinations start half-way into each 4 MiB buffer
)

// bulkPair is the 100 G testbed the bulk benchmarks and the allocation
// guard drive.
func bulkPair(tb testing.TB) *testrig.Pair {
	tb.Helper()
	pair, err := testrig.New(1, core.Profile100G(), fabric.DirectCable100G(), 4<<20)
	if err != nil {
		tb.Fatal(err)
	}
	return pair
}

// runBulk posts n 64 KiB verbs from A at window 4 — all WRITEs to B or
// all READs from B — and runs the testbed until the last completes.
func runBulk(tb testing.TB, pair *testrig.Pair, n int, write bool) {
	const window = 4
	a, srcA, srcB := pair.A, uint64(pair.BufA.Base()), uint64(pair.BufB.Base())
	posted, completed := 0, 0
	var post func()
	done := func(err error) {
		if err != nil {
			tb.Errorf("bulk verb: %v", err)
		}
		completed++
		post()
	}
	post = func() {
		if posted == n {
			return
		}
		off := uint64(posted % 16 * bulkSize)
		posted++
		if write {
			a.PostWrite(testrig.QPA, srcA+off, srcB+bulkDst+off, bulkSize, done)
		} else {
			a.PostRead(testrig.QPA, srcB+off, srcA+bulkDst+off, bulkSize, done)
		}
	}
	pair.Eng.Schedule(0, func() {
		for i := 0; i < window; i++ {
			post()
		}
	})
	pair.Run()
	if completed != n {
		tb.Fatalf("completed %d/%d bulk verbs", completed, n)
	}
}

// TestAllocsBulkPathPerByte guards the per-byte host cost of a bulk
// transfer through the whole NIC — doorbell, DMA read, segmentation,
// cable, RX, DMA write, ACK — which the roce-level guard
// (roce/alloc_test.go) cannot see: its in-memory handler has no pcie or
// hostmem copy. Bytes: a WRITE allocates its retained requester frames
// (payload plus headers, rounded up to a size class, ~1.2x) and a READ
// next to nothing; every DMA buffer is recycled. Objects: at most 3 per
// packet.
func TestAllocsBulkPathPerByte(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; allocation counts are only meaningful without -race")
	}
	pair := bulkPair(t)
	packets := float64((bulkSize + pair.A.Config().Roce.MTUPayload - 1) / pair.A.Config().Roce.MTUPayload)
	for _, c := range []struct {
		name  string
		write bool
	}{{"PostWrite", true}, {"PostRead", false}} {
		// Warm-up: free lists, frame pool, pending lists and the event
		// heap grow to steady state.
		runBulk(t, pair, 32, c.write)
		const ops = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runBulk(t, pair, ops, c.write)
		runtime.ReadMemStats(&after)
		bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / ops
		objsPerOp := float64(after.Mallocs-before.Mallocs) / ops
		t.Logf("%s 64 KiB: %.0f B/op (%.2fx payload), %.1f objects/op (%.2f per packet)",
			c.name, bytesPerOp, bytesPerOp/bulkSize, objsPerOp, objsPerOp/packets)
		if bytesPerOp > 1.75*bulkSize {
			t.Errorf("%s allocates %.2fx its payload in bytes, want <= 1.75x", c.name, bytesPerOp/bulkSize)
		}
		if objsPerOp > 3*packets {
			t.Errorf("%s allocates %.2f objects per packet, want <= 3", c.name, objsPerOp/packets)
		}
	}
}

func benchBulk(b *testing.B, write bool) {
	pair := bulkPair(b)
	runBulk(b, pair, 16, write)
	b.SetBytes(bulkSize)
	b.ReportAllocs()
	b.ResetTimer()
	runBulk(b, pair, b.N, write)
}

// BenchmarkNICWrite64K is the host cost of one 64 KiB RDMA WRITE posted
// on a core.NIC, post to completion, at window 4 on the 100 G pair.
func BenchmarkNICWrite64K(b *testing.B) { benchBulk(b, true) }

// BenchmarkNICRead64K is the same for one 64 KiB RDMA READ.
func BenchmarkNICRead64K(b *testing.B) { benchBulk(b, false) }
