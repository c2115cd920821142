package core_test

import (
	"runtime"
	"testing"

	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/raceflag"
	"strom/internal/sim"
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

// runBulk posts n 64 KiB verbs from A, window at a time — all WRITEs to
// B or all READs from B — runs the testbed until the last completes, and
// returns the mean simulated latency of a verb, post to completion.
func runBulk(tb testing.TB, pair *testrig.Pair, n, window int, write bool) sim.Duration {
	a, srcA, srcB := pair.A, uint64(pair.BufA.Base()), uint64(pair.BufB.Base())
	posted, completed := 0, 0
	// Verbs of one kind on one QP complete in the order they were posted.
	postedAt := make([]sim.Time, window)
	var latency sim.Duration
	var post func()
	done := func(err error) {
		if err != nil {
			tb.Errorf("bulk verb: %v", err)
		}
		latency += pair.Eng.Now().Sub(postedAt[completed%window])
		completed++
		post()
	}
	post = func() {
		if posted == n {
			return
		}
		off := uint64(posted % 16 * bulkSize)
		postedAt[posted%window] = pair.Eng.Now()
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
	return latency / sim.Duration(n)
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
		runBulk(t, pair, 32, 4, c.write)
		const ops = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runBulk(t, pair, ops, 4, c.write)
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
	runBulk(b, pair, 16, 1, write)
	b.SetBytes(bulkSize)
	b.ReportAllocs()
	b.ResetTimer()
	latency := runBulk(b, pair, b.N, 1, write)
	b.ReportMetric(latency.Microseconds(), "sim-us/op")
}

// BenchmarkBulkWrite64K is one 64 KiB RDMA WRITE posted on a core.NIC,
// post to completion, one at a time on the 100 G pair: its host cost,
// and as sim-us/op its simulated latency — what a store-and-forward
// stage anywhere in the data path adds to (5.0 us per crossing of PCIe,
// 5.6 per crossing of the wire). A full window hides it: there the verb
// waits for the wire either way.
func BenchmarkBulkWrite64K(b *testing.B) { benchBulk(b, true) }

// BenchmarkBulkRead64K is the same for one 64 KiB RDMA READ.
func BenchmarkBulkRead64K(b *testing.B) { benchBulk(b, false) }
