package pcie

import (
	"bytes"
	"testing"

	"strom/internal/hostmem"
	"strom/internal/raceflag"
	"strom/internal/sim"
	"strom/internal/tlb"
)

func testRig(t testing.TB, cfg Config, pages int) (*sim.Engine, *Engine, *hostmem.Memory, *hostmem.Buffer) {
	t.Helper()
	eng := sim.NewEngine(1)
	mem := hostmem.New(pages + 2)
	buf, err := mem.Allocate(pages * hostmem.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	tl := tlb.New(0)
	pas, _ := buf.PhysicalPages()
	for i, pa := range pas {
		if err := tl.Populate(buf.Base()+hostmem.Addr(i*hostmem.HugePageSize), pa); err != nil {
			t.Fatal(err)
		}
	}
	return eng, NewEngine(eng, mem, tl, cfg), mem, buf
}

func TestDMAWriteThenReadRoundTrip(t *testing.T) {
	eng, dma, _, buf := testRig(t, Gen3x8(), 2)
	data := []byte("hello from the NIC")
	var got []byte
	dma.WriteHost(buf.Base()+64, data, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		dma.ReadHost(buf.Base()+64, len(data), func(b []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = b
		})
	})
	eng.Run()
	if !bytes.Equal(got, data) {
		t.Errorf("got %q", got)
	}
}

func TestDMAReadLatencyIsAbout1500ns(t *testing.T) {
	// The paper's footnote 7: PCIe memory access latency ~1.5 us. A
	// 64-byte DMA read should land in that neighbourhood.
	eng, dma, _, buf := testRig(t, Gen3x8(), 1)
	var done sim.Time
	eng.Schedule(0, func() {
		dma.ReadHost(buf.Base(), 64, func(b []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			done = eng.Now()
		})
	})
	eng.Run()
	us := sim.Duration(done).Microseconds()
	if us < 1.2 || us > 1.8 {
		t.Errorf("64B DMA read latency = %.2f us, want ~1.5", us)
	}
}

func TestDMAWriteVisibleToHostAccess(t *testing.T) {
	eng, dma, mem, buf := testRig(t, Gen3x8(), 1)
	dma.WriteHost(buf.Base(), []byte{1, 2, 3}, func(err error) {})
	eng.Run()
	got, err := mem.ReadVirt(buf.Base(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("got %v", got)
	}
}

func TestDMAPageCrossingSplit(t *testing.T) {
	eng, dma, _, buf := testRig(t, Gen3x8(), 3)
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i)
	}
	va := buf.Base() + hostmem.Addr(hostmem.HugePageSize-1000)
	var got []byte
	dma.WriteHost(va, data, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
			return
		}
		dma.ReadHost(va, len(data), func(b []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = b
		})
	})
	eng.Run()
	if !bytes.Equal(got, data) {
		t.Error("page-crossing round trip mismatch")
	}
	if dma.Stats().SplitSegments < 2 {
		t.Errorf("splits = %d, want >= 2", dma.Stats().SplitSegments)
	}
}

func TestDMAUnmappedAddressFails(t *testing.T) {
	eng, dma, _, _ := testRig(t, Gen3x8(), 1)
	var rerr, werr error
	called := 0
	dma.ReadHost(hostmem.Addr(1<<40), 10, func(b []byte, err error) { rerr = err; called++ })
	dma.WriteHost(hostmem.Addr(1<<40), []byte{1}, func(err error) { werr = err; called++ })
	eng.Run()
	if called != 2 || rerr == nil || werr == nil {
		t.Errorf("called=%d rerr=%v werr=%v", called, rerr, werr)
	}
}

func TestDMABandwidthBound(t *testing.T) {
	// Streaming 64 MB through c2h must take about 64MB/6GB/s ~ 10.7 ms on
	// Gen3 x8 (48 Gbit/s effective).
	eng, dma, _, buf := testRig(t, Gen3x8(), 40)
	const total = 64 << 20
	const chunk = 1 << 20
	var done sim.Time
	pending := total / chunk
	eng.Schedule(0, func() {
		for i := 0; i < total/chunk; i++ {
			va := buf.Base() + hostmem.Addr(i*chunk%(32<<20))
			dma.WriteHost(va, make([]byte, chunk), func(err error) {
				if err != nil {
					t.Error(err)
				}
				pending--
				if pending == 0 {
					done = eng.Now()
				}
			})
		}
	})
	eng.Run()
	gbps := float64(total) * 8 / sim.Duration(done).Seconds() / 1e9
	if gbps < 44 || gbps > 50 {
		t.Errorf("streaming bandwidth = %.1f Gbit/s, want ~48", gbps)
	}
}

func TestDMACommandOverheadHurtsSmallTransfers(t *testing.T) {
	// 64 B commands at 20 ns/command cap out well below link bandwidth —
	// the reason the shuffle kernel cannot keep up at 100 G (§7).
	eng, dma, _, buf := testRig(t, Gen3x16(), 2)
	const n = 10000
	pending := n
	var done sim.Time
	eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			va := buf.Base() + hostmem.Addr(i*128%hostmem.HugePageSize)
			dma.WriteHost(va, make([]byte, 64), func(err error) {
				pending--
				if pending == 0 {
					done = eng.Now()
				}
			})
		}
	})
	eng.Run()
	gbps := float64(n*64) * 8 / sim.Duration(done).Seconds() / 1e9
	if gbps > 25 {
		t.Errorf("random 64B write bandwidth = %.1f Gbit/s, expected command-bound (<25)", gbps)
	}
}

func TestMMIOWriteOrderingAndLatency(t *testing.T) {
	eng, dma, _, _ := testRig(t, Gen3x8(), 1)
	var times []sim.Time
	eng.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			dma.MMIOWrite(func() { times = append(times, eng.Now()) })
		}
	})
	eng.Run()
	if len(times) != 3 {
		t.Fatalf("%d arrivals", len(times))
	}
	if times[0] < sim.Time(300*sim.Nanosecond) {
		t.Errorf("first doorbell at %v, before MMIO latency", times[0])
	}
	for i := 1; i < 3; i++ {
		if times[i] <= times[i-1] {
			t.Error("doorbells not serialized")
		}
	}
}

func TestMMIORead(t *testing.T) {
	eng, dma, _, _ := testRig(t, Gen3x8(), 1)
	var got uint64
	var at sim.Time
	eng.Schedule(0, func() {
		dma.MMIORead(func() uint64 { return 0xBEEF }, func(v uint64) { got = v; at = eng.Now() })
	})
	eng.Run()
	if got != 0xBEEF {
		t.Errorf("got %#x", got)
	}
	if at < sim.Time(900*sim.Nanosecond) {
		t.Errorf("MMIO read completed at %v, faster than a round trip", at)
	}
}

func TestZeroLengthWriteCompletes(t *testing.T) {
	eng, dma, _, buf := testRig(t, Gen3x8(), 1)
	called := false
	dma.WriteHost(buf.Base(), nil, func(err error) {
		if err != nil {
			t.Error(err)
		}
		called = true
	})
	eng.Run()
	if !called {
		t.Error("completion not called")
	}
}

func TestStatsCounters(t *testing.T) {
	eng, dma, _, buf := testRig(t, Gen3x8(), 1)
	dma.WriteHost(buf.Base(), make([]byte, 100), func(error) {})
	dma.ReadHost(buf.Base(), 50, func([]byte, error) {})
	eng.Run()
	st := dma.Stats()
	if st.WriteCommands != 1 || st.ReadCommands != 1 || st.WriteBytes != 100 || st.ReadBytes != 50 {
		t.Errorf("stats = %+v", st)
	}
}

func TestConfigPresets(t *testing.T) {
	x8, x16 := Gen3x8(), Gen3x16()
	if x8.BandwidthGbps >= x16.BandwidthGbps {
		t.Error("x8 should be slower than x16")
	}
	// The paper's ratios: ~6:1 vs 10 G and ~1:1 vs 100 G.
	if r := x8.BandwidthGbps / 10; r < 4 || r > 7 {
		t.Errorf("x8:10G ratio = %.1f", r)
	}
	if r := x16.BandwidthGbps / 100; r < 0.9 || r > 1.4 {
		t.Errorf("x16:100G ratio = %.2f", r)
	}
}

// TestDMAWriteStagesPayload pins WriteHost's copy: the payload usually
// aliases an RX frame that is recycled before the commit event, so what
// lands in host memory must be the bytes as they were at the call.
func TestDMAWriteStagesPayload(t *testing.T) {
	eng, dma, mem, buf := testRig(t, Gen3x8(), 1)
	frame := []byte("payload as posted")
	want := append([]byte(nil), frame...)
	dma.WriteHost(buf.Base(), frame, func(error) {})
	for i := range frame {
		frame[i] = 0xEE // the frame buffer is reused
	}
	eng.Run()
	got, err := mem.ReadVirt(buf.Base(), len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("host memory holds %q, want %q", got, want)
	}
}

// TestDMACommandRecycling drives many overlapping commands of mixed
// size, some page-crossing, through the recycled command records: every
// write must land intact, every read must return its own range, and the
// counters must match a count made beside the engine. A record handed
// out twice, or a staging buffer or segment list shared by two commands
// in flight, shows up as a byte mismatch.
func TestDMACommandRecycling(t *testing.T) {
	eng, dma, mem, buf := testRig(t, Gen3x16(), 4)
	const slot = 8192
	sizes := []int{1, 64, 1408, 4096, 3000, 8192}
	var want Stats
	image := make(map[hostmem.Addr][]byte)
	issue := func(round int) {
		for k, n := range sizes {
			// Sizes 3 and 4 straddle the 2 MB boundaries after pages 1
			// and 2; the rest get a slot of their own in page 0.
			va := buf.Base() + hostmem.Addr(round*len(sizes)*slot+k*slot)
			if k == 3 || k == 4 {
				va = buf.Base() + hostmem.Addr((k-1)*hostmem.HugePageSize-n/2)
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(round*31 + k*7 + i)
			}
			image[va] = data
			want.WriteCommands++
			want.WriteBytes += uint64(n)
			if int(va.PageOffset())+n > hostmem.HugePageSize {
				want.SplitSegments++
			}
			scratch := append([]byte(nil), data...)
			dma.WriteHost(va, scratch, func(err error) {
				if err != nil {
					t.Errorf("write %#x: %v", uint64(va), err)
					return
				}
				want.ReadCommands++
				want.ReadBytes += uint64(n)
				if int(va.PageOffset())+n > hostmem.HugePageSize {
					want.SplitSegments++
				}
				// Issued from inside a completion, so the records recycle
				// as fast as they can; owned and borrowed results alternate.
				read := dma.ReadHost
				if k%2 == 1 {
					read = dma.ReadHostBorrowed
				}
				read(va, n, func(got []byte, err error) {
					if err != nil || !bytes.Equal(got, image[va]) {
						t.Errorf("read %#x n=%d: err=%v, mismatch=%v", uint64(va), n, err, err == nil)
					}
				})
			})
			for i := range scratch {
				scratch[i] = 0xEE
			}
		}
	}
	// The page-crossing slots are reused by every round, so a round runs
	// to completion; within it 6 writes, then 6 reads, are in flight
	// together.
	for round := 0; round < 20; round++ {
		eng.Schedule(0, func() { issue(round) })
		eng.Run()
		for va, data := range image {
			got, err := mem.ReadVirt(va, len(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("round %d: host memory at %#x differs (err=%v)", round, uint64(va), err)
			}
		}
		image = make(map[hostmem.Addr][]byte)
	}
	if got := dma.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

// TestAllocsDMACommand guards the steady-state cost of a DMA command: a
// write and a borrowed read allocate nothing (record, segments and
// staging buffer are recycled), an owned read only its result.
func TestAllocsDMACommand(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; AllocsPerRun is only meaningful without -race")
	}
	eng, dma, _, buf := testRig(t, Gen3x16(), 1)
	payload := make([]byte, 1408)
	wrote := func(error) {}
	read := func([]byte, error) {}
	write4 := func() {
		for i := 0; i < 4; i++ {
			dma.WriteHost(buf.Base()+hostmem.Addr(i*2048), payload, wrote)
		}
		eng.Run()
	}
	read4 := func() {
		for i := 0; i < 4; i++ {
			dma.ReadHost(buf.Base()+hostmem.Addr(i*2048), 1408, read)
		}
		eng.Run()
	}
	borrow4 := func() {
		for i := 0; i < 4; i++ {
			dma.ReadHostBorrowed(buf.Base()+hostmem.Addr(i*2048), 1408, read)
		}
		eng.Run()
	}
	write4()
	read4()
	borrow4()
	if n := testing.AllocsPerRun(100, write4); n != 0 {
		t.Errorf("4 DMA writes allocate %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, borrow4); n != 0 {
		t.Errorf("4 borrowed DMA reads allocate %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, read4); n > 4 {
		t.Errorf("4 DMA reads allocate %.1f times, want 4 (the results)", n)
	}
}

// BenchmarkDMARead4K is the host cost of one 4 KiB DMA read command:
// TLB split, stream reservation, commit event, the copy out of host
// memory.
func BenchmarkDMARead4K(b *testing.B) {
	eng, dma, _, buf := testRig(b, Gen3x16(), 1)
	done := func([]byte, error) {}
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dma.ReadHost(buf.Base()+hostmem.Addr(i%256*4096), 4096, done)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkDMAWrite1408 is the host cost of one MTU-payload DMA write
// command — what the responder pays per WRITE packet and the requester
// per READ response.
func BenchmarkDMAWrite1408(b *testing.B) {
	eng, dma, _, buf := testRig(b, Gen3x16(), 1)
	payload := make([]byte, 1408)
	done := func(error) {}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dma.WriteHost(buf.Base()+hostmem.Addr(i%256*2048), payload, done)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}
