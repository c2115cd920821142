package shuffle_test

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"strom/internal/hostmem"
	"strom/internal/kernels/shuffle"
	"strom/internal/raceflag"
	"strom/internal/sim"
	"strom/internal/testrig"
)

const rpcOp = 0x04

func TestParamsRoundTrip(t *testing.T) {
	f := func(tbl uint64, n uint32, comp, total uint64) bool {
		in := shuffle.Params{TableAddress: tbl, NumPartitions: n, CompletionAddress: comp, TotalTuples: total}
		out, err := shuffle.DecodeParams(in.Encode())
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := shuffle.DecodeParams([]byte{1}); err == nil {
		t.Error("short params accepted")
	}
}

func TestSendParamsRoundTrip(t *testing.T) {
	f := func(tbl uint64, n uint32, comp, total uint64) bool {
		in := shuffle.SendParams{TableAddress: tbl, NumPartitions: n, CompletionAddress: comp, TotalTuples: total}
		out, err := shuffle.DecodeSendParams(in.Encode())
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := shuffle.DecodeSendParams([]byte{1}); err == nil {
		t.Error("short send params accepted")
	}
}

func TestSendKernelRejectsBadCounts(t *testing.T) {
	p, err := testrig.New10G(11)
	if err != nil {
		t.Fatal(err)
	}
	k := shuffle.NewSend()
	if err := p.A.DeployKernel(0x40, k); err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint32{0, 3, shuffle.SendMaxPartitions * 2} {
		params := shuffle.SendParams{NumPartitions: n}
		done := false
		p.Eng.Schedule(0, func() {
			p.A.InvokeLocal(0x40, testrig.QPA, params.Encode(), func(error) { done = true })
		})
		p.Run()
		if !done {
			t.Fatalf("n=%d: invoke never completed", n)
		}
	}
	if k.Stats().Errors != 3 {
		t.Errorf("errors = %d", k.Stats().Errors)
	}
}

func TestSendKernelStreamBeforeParams(t *testing.T) {
	p, err := testrig.New10G(12)
	if err != nil {
		t.Fatal(err)
	}
	k := shuffle.NewSend()
	if err := p.A.DeployKernel(0x41, k); err != nil {
		t.Fatal(err)
	}
	done := false
	p.Eng.Schedule(0, func() {
		p.A.StreamLocal(0x41, testrig.QPA, uint64(p.BufA.Base()), 64, func(error) { done = true })
	})
	p.Run()
	if !done || k.Stats().Errors == 0 {
		t.Errorf("done=%v errors=%d", done, k.Stats().Errors)
	}
}

func TestSendKernelEndToEnd(t *testing.T) {
	// Send-side shuffle on the two-machine rig: both partitions go to B,
	// but through per-partition queue-pair destinations, exercising the
	// RDMA write path of footnote 9.
	const (
		sendOp = 0x42
		nParts = 4
		tuples = 3000
	)
	p, err := testrig.New10G(13)
	if err != nil {
		t.Fatal(err)
	}
	k := shuffle.NewSend()
	if err := p.A.DeployKernel(sendOp, k); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, tuples*8)
	counts := make([]int, nParts)
	for i := 0; i < tuples; i++ {
		v := rng.Uint64()
		binary.LittleEndian.PutUint64(data[i*8:], v)
		counts[shuffle.Partition(v, nParts)]++
	}
	if err := p.A.Memory().WriteVirt(p.BufA.Base()+65536, data); err != nil {
		t.Fatal(err)
	}
	const partRegion = 1 << 18
	table := make([]byte, nParts*shuffle.SendDescriptorSize)
	for pid := 0; pid < nParts; pid++ {
		binary.LittleEndian.PutUint32(table[pid*16:], testrig.QPA)
		binary.LittleEndian.PutUint64(table[pid*16+8:], uint64(p.BufB.Base())+uint64(pid*partRegion))
	}
	if err := p.A.Memory().WriteVirt(p.BufA.Base(), table); err != nil {
		t.Fatal(err)
	}
	completion := p.BufA.Base() + 32768
	p.Eng.Go("sender", func(pr *sim.Process) {
		params := shuffle.SendParams{
			TableAddress:      uint64(p.BufA.Base()),
			NumPartitions:     nParts,
			CompletionAddress: uint64(completion),
		}
		p.A.InvokeLocal(sendOp, testrig.QPA, params.Encode(), nil)
		p.A.StreamLocal(sendOp, testrig.QPA, uint64(p.BufA.Base())+65536, len(data), nil)
		raw, err := p.A.Host().Poll(pr, p.A.Memory(), completion, 8, func(b []byte) bool {
			return binary.LittleEndian.Uint64(b) != 0
		}, 0)
		if err != nil {
			t.Errorf("completion: %v", err)
			return
		}
		if got := binary.LittleEndian.Uint64(raw); got != tuples {
			t.Errorf("count = %d", got)
		}
	})
	p.Run()
	// Verify placement at B.
	for pid := 0; pid < nParts; pid++ {
		got, err := p.B.Memory().ReadVirt(p.BufB.Base()+hostmem.Addr(pid*partRegion), counts[pid]*8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < counts[pid]; i++ {
			v := binary.LittleEndian.Uint64(got[i*8:])
			if shuffle.Partition(v, nParts) != uint32(pid) {
				t.Fatalf("tuple %#x in wrong partition %d", v, pid)
			}
		}
	}
	if k.Stats().Tuples != tuples {
		t.Errorf("kernel tuples = %d", k.Stats().Tuples)
	}
}

func TestKernelString(t *testing.T) {
	if s := shuffle.New().String(); s == "" {
		t.Error("empty String()")
	}
	if shuffle.New().Name() != "shuffle" || shuffle.NewSend().Name() != "shuffle-send" {
		t.Error("kernel names wrong")
	}
}

func TestPartitionFunction(t *testing.T) {
	for _, c := range []struct {
		v    uint64
		n    uint32
		want uint32
	}{
		{0, 16, 0}, {15, 16, 15}, {16, 16, 0}, {0xFF, 256, 0xFF}, {0x1FF, 256, 0xFF},
	} {
		if got := shuffle.Partition(c.v, c.n); got != c.want {
			t.Errorf("Partition(%d,%d) = %d, want %d", c.v, c.n, got, c.want)
		}
	}
}

// shuffleBed sets up the receive-side shuffle: a descriptor table and P
// partition regions in B's memory, a completion word, and the kernel.
type shuffleBed struct {
	p          *testrig.Pair
	k          *shuffle.Kernel
	params     shuffle.Params
	partBase   []hostmem.Addr
	partSize   int
	completion hostmem.Addr
}

func newShuffleBed(t *testing.T, seed int64, nParts, partSize int) *shuffleBed {
	t.Helper()
	p, err := testrig.New10G(seed)
	if err != nil {
		t.Fatal(err)
	}
	k := shuffle.New()
	if err := p.B.DeployKernel(rpcOp, k); err != nil {
		t.Fatal(err)
	}
	// Memory map in B: [0, tableSize) descriptor table, then partitions,
	// completion word at the end of the buffer.
	tableVA := p.BufB.Base()
	table := make([]byte, nParts*shuffle.DescriptorSize)
	bases := make([]hostmem.Addr, nParts)
	cur := tableVA + hostmem.Addr((nParts*shuffle.DescriptorSize+63)&^63)
	for i := 0; i < nParts; i++ {
		bases[i] = cur
		binary.LittleEndian.PutUint64(table[i*8:], uint64(cur))
		cur += hostmem.Addr(partSize)
	}
	if err := p.B.Memory().WriteVirt(tableVA, table); err != nil {
		t.Fatal(err)
	}
	completion := cur + 64
	return &shuffleBed{
		p: p, k: k,
		params: shuffle.Params{
			TableAddress:      uint64(tableVA),
			NumPartitions:     uint32(nParts),
			CompletionAddress: uint64(completion),
		},
		partBase: bases, partSize: partSize, completion: completion,
	}
}

// host runs B's side of n sessions in turn: it polls the completion word
// the kernel publishes, hands the count to check (nil: none), clears the
// word for the next session, and tells A the count a cable delay later
// through done[i].
func (b *shuffleBed) host(t *testing.T, n int, check func(sess int, count uint64)) (done []sim.Completion[uint64]) {
	p := b.p
	done = make([]sim.Completion[uint64], n)
	zero := make([]byte, 8)
	p.EngB.Go("host", func(pr *sim.Process) {
		for i := range done {
			raw, err := p.B.Host().Poll(pr, p.B.Memory(), b.completion, 8, func(w []byte) bool {
				return binary.LittleEndian.Uint64(w) != 0
			}, 0)
			if err != nil {
				t.Errorf("session %d poll: %v", i, err)
				return
			}
			count := binary.LittleEndian.Uint64(raw)
			if check != nil {
				check(i, count)
			}
			if err := p.B.Memory().WriteVirt(b.completion, zero); err != nil {
				t.Errorf("session %d clear: %v", i, err)
				return
			}
			p.EngB.CrossSchedule(p.Eng, p.Group.Lookahead(), func() { done[i].Complete(count) })
		}
	})
	return done
}

func TestShuffleEndToEnd(t *testing.T) {
	const nParts = 16
	const tuples = 20000
	bed := newShuffleBed(t, 1, nParts, tuples*8)
	p := bed.p
	// Sender data in A's memory.
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, tuples*8)
	want := make([][]uint64, nParts)
	for i := 0; i < tuples; i++ {
		v := rng.Uint64()
		binary.LittleEndian.PutUint64(data[i*8:], v)
		pid := shuffle.Partition(v, nParts)
		want[pid] = append(want[pid], v)
	}
	if err := p.A.Memory().WriteVirt(p.BufA.Base(), data); err != nil {
		t.Fatal(err)
	}
	p.Eng.Go("sender", func(pr *sim.Process) {
		if err := p.A.RPCSync(pr, testrig.QPA, rpcOp, bed.params.Encode()); err != nil {
			t.Errorf("params rpc: %v", err)
			return
		}
		if err := p.A.RPCWriteSync(pr, testrig.QPA, rpcOp, uint64(p.BufA.Base()), len(data)); err != nil {
			t.Errorf("rpc write: %v", err)
		}
	})
	// B waits for the kernel's completion count.
	bed.host(t, 1, func(_ int, got uint64) {
		if got != tuples {
			t.Errorf("completion count = %d, want %d", got, tuples)
		}
	})
	p.Run()
	// Every tuple must be in its radix partition, in arrival order.
	total := 0
	for pid := 0; pid < nParts; pid++ {
		n := len(want[pid])
		total += n
		got, err := p.B.Memory().ReadVirt(bed.partBase[pid], n*8)
		if err != nil {
			t.Fatalf("partition %d: %v", pid, err)
		}
		for i := 0; i < n; i++ {
			v := binary.LittleEndian.Uint64(got[i*8:])
			if v != want[pid][i] {
				t.Fatalf("partition %d tuple %d: %#x != %#x", pid, i, v, want[pid][i])
			}
		}
	}
	if total != tuples {
		t.Errorf("total = %d", total)
	}
	if bed.k.Stats().Tuples != tuples {
		t.Errorf("kernel tuples = %d", bed.k.Stats().Tuples)
	}
}

func TestShuffleMultisetPreservedProperty(t *testing.T) {
	// Smaller end-to-end property run: multiset of tuples preserved.
	const nParts = 8
	bed := newShuffleBed(t, 2, nParts, 1<<20)
	p := bed.p
	rng := rand.New(rand.NewSource(8))
	const tuples = 3000
	data := make([]byte, tuples*8)
	var sent []uint64
	for i := 0; i < tuples; i++ {
		v := uint64(rng.Intn(500)) // duplicates on purpose
		binary.LittleEndian.PutUint64(data[i*8:], v)
		sent = append(sent, v)
	}
	if err := p.A.Memory().WriteVirt(p.BufA.Base(), data); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, nParts)
	for _, v := range sent {
		counts[shuffle.Partition(v, nParts)]++
	}
	p.Eng.Go("sender", func(pr *sim.Process) {
		if err := p.A.RPCSync(pr, testrig.QPA, rpcOp, bed.params.Encode()); err != nil {
			t.Errorf("params: %v", err)
			return
		}
		if err := p.A.RPCWriteSync(pr, testrig.QPA, rpcOp, uint64(p.BufA.Base()), len(data)); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	p.Run()
	var got []uint64
	for pid := 0; pid < nParts; pid++ {
		raw, err := p.B.Memory().ReadVirt(bed.partBase[pid], counts[pid]*8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < counts[pid]; i++ {
			v := binary.LittleEndian.Uint64(raw[i*8:])
			if shuffle.Partition(v, nParts) != uint32(pid) {
				t.Fatalf("tuple %#x landed in wrong partition %d", v, pid)
			}
			got = append(got, v)
		}
	}
	sort.Slice(sent, func(i, j int) bool { return sent[i] < sent[j] })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(sent) {
		t.Fatalf("got %d tuples, sent %d", len(got), len(sent))
	}
	for i := range sent {
		if got[i] != sent[i] {
			t.Fatal("multiset not preserved")
		}
	}
}

func TestShuffleSessionAcrossMessages(t *testing.T) {
	// With TotalTuples set, the session spans several RDMA RPC WRITE
	// messages and only completes when all tuples arrived.
	const nParts = 8
	const tuples = 4096
	bed := newShuffleBed(t, 5, nParts, tuples*8)
	bed.params.TotalTuples = tuples
	p := bed.p
	data := make([]byte, tuples*8)
	for i := 0; i < tuples; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], uint64(i*7))
	}
	if err := p.A.Memory().WriteVirt(p.BufA.Base(), data); err != nil {
		t.Fatal(err)
	}
	p.Eng.Go("sender", func(pr *sim.Process) {
		if err := p.A.RPCSync(pr, testrig.QPA, rpcOp, bed.params.Encode()); err != nil {
			t.Errorf("params: %v", err)
			return
		}
		// Four separate messages, each with its own last segment.
		chunk := len(data) / 4
		for i := 0; i < 4; i++ {
			if err := p.A.RPCWriteSync(pr, testrig.QPA, rpcOp, uint64(p.BufA.Base())+uint64(i*chunk), chunk); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	})
	// The session completes once, when the kernel has seen every tuple.
	bed.host(t, 1, func(_ int, got uint64) {
		if got != tuples {
			t.Errorf("count = %d", got)
		}
		if seen := bed.k.Stats().Tuples; seen != tuples {
			t.Errorf("session completed after %d of %d tuples", seen, tuples)
		}
	})
	p.Run()
	if bed.k.Stats().Tuples != tuples {
		t.Errorf("kernel tuples = %d", bed.k.Stats().Tuples)
	}
}

// TestShuffleBackToBackSessions runs several sessions through one kernel:
// a completed session hands its partition buffers to the next, which must
// start empty at offset zero, with a tuple count that leaves a partial
// buffer behind in every partition each time.
func TestShuffleBackToBackSessions(t *testing.T) {
	const nParts = 8
	const tuples = 1000 // 125 per partition: seven full buffers and a partial one
	bed := newShuffleBed(t, 9, nParts, tuples*8)
	p := bed.p
	done := bed.host(t, 3, func(sess int, got uint64) {
		if got != tuples {
			t.Errorf("session %d counted %d tuples, want %d", sess, got, tuples)
		}
		for pid := 0; pid < nParts; pid++ {
			got, err := p.B.Memory().ReadVirt(bed.partBase[pid], tuples/nParts*8)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < tuples/nParts; j++ {
				want := uint64(sess)<<32 | uint64(j*nParts+pid)
				if v := binary.LittleEndian.Uint64(got[j*8:]); v != want {
					t.Errorf("session %d partition %d tuple %d = %#x, want %#x", sess, pid, j, v, want)
					return
				}
			}
		}
	})
	p.Eng.Go("sender", func(pr *sim.Process) {
		for sess := range done {
			data := make([]byte, tuples*8)
			for i := 0; i < tuples; i++ {
				binary.LittleEndian.PutUint64(data[i*8:], uint64(sess)<<32|uint64(i))
			}
			if err := p.A.Memory().WriteVirt(p.BufA.Base(), data); err != nil {
				t.Error(err)
				return
			}
			if err := p.A.RPCSync(pr, testrig.QPA, rpcOp, bed.params.Encode()); err != nil {
				t.Errorf("session %d params: %v", sess, err)
				return
			}
			if err := p.A.RPCWriteSync(pr, testrig.QPA, rpcOp, uint64(p.BufA.Base()), len(data)); err != nil {
				t.Errorf("session %d write: %v", sess, err)
				return
			}
			done[sess].Wait(pr)
		}
	})
	p.Run()
	if st := bed.k.Stats(); st.Tuples != 3*tuples || st.Errors != 0 {
		t.Errorf("kernel stats %+v", st)
	}
}

// TestAllocsShuffleSessionPerByte guards the host cost of a session on
// the whole kernel path — the parameter block and the RPC WRITE segments
// into the kernel, one DMA write per 128 B partition flush, the
// completion word — after the first session has sized every free list.
// The kernel path allocates nothing: request frames, pipeline buffers,
// DMA records, the session record and its partition buffers are all
// recycled. What is left is this test's own host loop, about 3 objects
// and 160 B per session (the polled word, the cross-shard completion).
func TestAllocsShuffleSessionPerByte(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; allocation counts are only meaningful without -race")
	}
	const nParts = 64
	const streamBytes = 16 << 10
	const flushes = streamBytes / (shuffle.BufferValues * shuffle.TupleSize)
	bed := newShuffleBed(t, 11, nParts, streamBytes)
	p := bed.p
	data := make([]byte, streamBytes)
	rand.New(rand.NewSource(3)).Read(data)
	if err := p.A.Memory().WriteVirt(p.BufA.Base(), data); err != nil {
		t.Fatal(err)
	}
	params := bed.params.Encode()
	sessions := func(n int) {
		done := bed.host(t, n, nil)
		p.Eng.Go("sender", func(pr *sim.Process) {
			for i := range done {
				if err := p.A.RPCSync(pr, testrig.QPA, rpcOp, params); err != nil {
					t.Error(err)
					return
				}
				if err := p.A.RPCWriteSync(pr, testrig.QPA, rpcOp, uint64(p.BufA.Base()), streamBytes); err != nil {
					t.Error(err)
					return
				}
				done[i].Wait(pr)
			}
		})
		p.Run()
	}
	sessions(8)
	const n = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sessions(n)
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / n
	objsPer := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("16 KiB session, %d flushes: %.0f B (%.2fx payload), %.1f objects (%.2f per flush)",
		flushes, bytesPer, bytesPer/streamBytes, objsPer, objsPer/flushes)
	if bytesPer > 0.1*streamBytes {
		t.Errorf("a session allocates %.2fx its payload in bytes, want <= 0.1x", bytesPer/streamBytes)
	}
	if objsPer > 4 {
		t.Errorf("a session allocates %.1f objects, want <= 4: the kernel path allocates per session or per flush again", objsPer)
	}
	if st := bed.k.Stats(); st.Errors != 0 || st.Tuples != (8+n)*streamBytes/shuffle.TupleSize {
		t.Errorf("kernel stats %+v", st)
	}
}

// TestReinvokeMidSessionTakesFreshRecord: a session parametrised while
// the partition flushes of the one before are still in flight (B's DMA
// stalls them) gets a record of its own. It completes as soon as its own
// flushes land; the late flushes settle the old session, not the new one.
func TestReinvokeMidSessionTakesFreshRecord(t *testing.T) {
	const nParts, tuples = 16, 256 // one full buffer per partition
	bed := newShuffleBed(t, 5, nParts, 4096)
	p := bed.p
	var stall sim.Duration
	p.B.DMA().SetStall(func(sim.Time) sim.Duration { return stall })
	data := make([]byte, tuples*shuffle.TupleSize)
	for i := 0; i < tuples; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], uint64(i))
	}
	first := bed.params
	first.TotalTuples = 2 * tuples // never reached: the session stays open
	at := func(us float64, fn func()) { p.EngB.Schedule(sim.Duration(us*float64(sim.Microsecond)), fn) }
	handle := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	at(0, func() { handle(p.B.HandleRPCParams(testrig.QPB, rpcOp, first.Encode())) })
	at(5, func() {
		stall = 100 * sim.Microsecond
		handle(p.B.HandleRPCWrite(testrig.QPB, rpcOp, data, true))
	})
	at(10, func() {
		stall = 0
		handle(p.B.HandleRPCParams(testrig.QPB, rpcOp, bed.params.Encode()))
	})
	at(15, func() { handle(p.B.HandleRPCWrite(testrig.QPB, rpcOp, data, true)) })
	var count uint64
	at(50, func() {
		raw, err := p.B.Memory().ReadVirt(bed.completion, 8)
		handle(err)
		count = binary.LittleEndian.Uint64(raw)
	})
	p.Run()
	if count != tuples {
		t.Errorf("second session's completion word at 50 us = %d, want %d", count, tuples)
	}
	if st := bed.k.Stats(); st.Flushes != 2*nParts || st.Errors != 0 {
		t.Errorf("kernel stats %+v", st)
	}
}

func TestShuffleRejectsBadPartitionCounts(t *testing.T) {
	bed := newShuffleBed(t, 3, 16, 1024)
	p := bed.p
	for _, n := range []uint32{0, 3, shuffle.MaxPartitions * 2} {
		params := bed.params
		params.NumPartitions = n
		done := false
		p.Eng.Schedule(0, func() {
			p.A.PostRPC(testrig.QPA, rpcOp, params.Encode(), func(err error) { done = true })
		})
		p.Run()
		if !done {
			t.Fatalf("n=%d: rpc never completed", n)
		}
	}
	if bed.k.Stats().Errors != 3 {
		t.Errorf("errors = %d", bed.k.Stats().Errors)
	}
}

func TestShuffleStreamBeforeParamsCounted(t *testing.T) {
	bed := newShuffleBed(t, 4, 16, 1024)
	p := bed.p
	data := make([]byte, 64)
	if err := p.A.Memory().WriteVirt(p.BufA.Base(), data); err != nil {
		t.Fatal(err)
	}
	done := false
	p.Eng.Schedule(0, func() {
		// Stream without ever sending params.
		p.A.PostRPCWrite(testrig.QPA, rpcOp, uint64(p.BufA.Base()), 64, func(err error) { done = true })
	})
	p.Run()
	if !done {
		t.Fatal("stream rpc never completed")
	}
	if bed.k.Stats().Errors == 0 {
		t.Error("orphan stream not flagged")
	}
}
