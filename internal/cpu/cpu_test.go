package cpu

import (
	"math"
	"math/rand"
	"testing"

	"strom/internal/hostmem"
	"strom/internal/sim"
)

func TestHLLThroughputMatchesFig13a(t *testing.T) {
	m := Platform100G()
	// The values printed in Fig. 13a.
	want := map[int]float64{1: 4.64, 2: 9.28, 4: 18.40, 8: 24.40}
	for threads, gbps := range want {
		got := m.HLLThroughputGbps(threads)
		if math.Abs(got-gbps)/gbps > 0.02 {
			t.Errorf("%d threads: %.2f Gbit/s, want %.2f", threads, got, gbps)
		}
	}
	if m.HLLThroughputGbps(0) != 0 {
		t.Error("0 threads should give 0")
	}
	// Saturation: going to 16 threads must not double the 8-thread rate.
	if m.HLLThroughputGbps(16) > 1.3*m.HLLThroughputGbps(8) {
		t.Error("no saturation at high thread counts")
	}
}

func TestCRC64DurationCalibration(t *testing.T) {
	m := Platform10G()
	// ~1.8 B/ns: 4 KB takes ~2.3 us — the source of the large
	// READ+SW overhead in Fig. 9.
	d := m.CRC64Duration(4096)
	if d < 2000*sim.Nanosecond || d > 2600*sim.Nanosecond {
		t.Errorf("CRC64(4KB) = %v", d)
	}
}

func TestDoorbellRates(t *testing.T) {
	// Fig. 5c vs Fig. 12c: the 10 G platform issues ~7 M doorbells/s, the
	// 100 G platform ~40 M/s.
	r10 := 1e12 / float64(Platform10G().DoorbellInterval)
	r100 := 1e12 / float64(Platform100G().DoorbellInterval)
	if r10 < 6e6 || r10 > 8e6 {
		t.Errorf("10G doorbell rate = %.1fM/s", r10/1e6)
	}
	if r100 < 35e6 || r100 > 45e6 {
		t.Errorf("100G doorbell rate = %.1fM/s", r100/1e6)
	}
}

func TestPollSeesWrite(t *testing.T) {
	eng := sim.NewEngine(1)
	mem := hostmem.New(4)
	buf, _ := mem.Allocate(hostmem.HugePageSize)
	m := Platform10G()
	var done sim.Time
	eng.Go("poller", func(p *sim.Process) {
		if err := m.PollNonZero(p, mem, buf.Base(), 0); err != nil {
			t.Errorf("poll: %v", err)
		}
		done = p.Now()
	})
	writeAt := 5 * sim.Microsecond
	eng.Schedule(writeAt, func() {
		if err := mem.WriteVirt(buf.Base(), []byte{1}); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if done < sim.Time(writeAt) {
		t.Errorf("poll returned at %v, before the write", done)
	}
	if done > sim.Time(writeAt+2*sim.Microsecond) {
		t.Errorf("poll returned at %v, long after the write", done)
	}
}

func TestPollTimeout(t *testing.T) {
	eng := sim.NewEngine(1)
	mem := hostmem.New(4)
	buf, _ := mem.Allocate(hostmem.HugePageSize)
	m := Platform10G()
	var err error
	eng.Go("poller", func(p *sim.Process) {
		err = m.PollNonZero(p, mem, buf.Base(), 10*sim.Microsecond)
	})
	eng.Run()
	if err != ErrPollTimeout {
		t.Errorf("err = %v", err)
	}
}

func TestCRCStampAndVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 64, 512, 4096} {
		obj := make([]byte, n)
		rng.Read(obj)
		StampCRC64(obj)
		if !VerifyCRC64(obj) {
			t.Errorf("n=%d: stamped object fails verification", n)
		}
		obj[0] ^= 1
		if VerifyCRC64(obj) {
			t.Errorf("n=%d: corrupted object passes verification", n)
		}
	}
	if VerifyCRC64([]byte{1, 2}) {
		t.Error("short object passes")
	}
	StampCRC64([]byte{1}) // must not panic
}

func TestCheckCRC64ChargesTime(t *testing.T) {
	eng := sim.NewEngine(1)
	m := Platform10G()
	obj := make([]byte, 4096)
	StampCRC64(obj)
	var ok bool
	var took sim.Duration
	eng.Go("p", func(p *sim.Process) {
		start := p.Now()
		ok = m.CheckCRC64(p, obj)
		took = p.Now().Sub(start)
	})
	eng.Run()
	if !ok {
		t.Error("valid object rejected")
	}
	if took != m.CRC64Duration(len(obj)) {
		t.Errorf("took %v, want %v", took, m.CRC64Duration(len(obj)))
	}
}

func TestSoftwareHLLEstimateAndTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewSoftwareHLL(eng, Platform100G(), 4, 14)
	rng := rand.New(rand.NewSource(2))
	const items = 100000
	buf := make([]byte, items*8)
	rng.Read(buf)
	var finish sim.Time
	eng.Schedule(0, func() {
		const chunk = 8192
		for i := 0; i < len(buf); i += chunk {
			end := i + chunk
			if end > len(buf) {
				end = len(buf)
			}
			finish = s.Ingest(buf[i:end])
		}
	})
	eng.Run()
	est := s.Estimate()
	if math.Abs(est-items)/items > 0.05 {
		t.Errorf("estimate = %.0f, want ~%d", est, items)
	}
	gbps := float64(len(buf)) * 8 / sim.Duration(finish).Seconds() / 1e9
	want := Platform100G().HLLThroughputGbps(4)
	if math.Abs(gbps-want)/want > 0.02 {
		t.Errorf("ingest rate = %.2f Gbit/s, want %.2f", gbps, want)
	}
	if s.Bytes() != uint64(len(buf)) {
		t.Errorf("bytes = %d", s.Bytes())
	}
}

func TestMemcpyDuration(t *testing.T) {
	m := Platform10G()
	if d := m.MemcpyDuration(10 << 30); math.Abs(d.Seconds()-1.0/10*10.73741824) > 0.2 {
		t.Errorf("10GiB copy = %v", d)
	}
	if m.MemcpyDuration(0) != 0 {
		t.Error("zero copy should be free")
	}
}

func TestPartitionDuration(t *testing.T) {
	m := Platform10G()
	// 128M tuples (1 GB of 8 B tuples) at ~1.05 ns/tuple ~ 0.14 s: the
	// partitioning pass that makes SW+WRITE CPU-bound in Fig. 11.
	d := m.PartitionDuration(128 << 20)
	if d < 100*sim.Millisecond || d > 200*sim.Millisecond {
		t.Errorf("partition(1GB) = %v", d)
	}
}

// BenchmarkPoll is one completion poll of the kind a spilled KV Get or a
// kernel RPC ends with: the word turns non-zero 2 µs after the poll
// starts, about twenty PollInterval iterations later. The poll reads into
// one buffer however long it spins.
func BenchmarkPoll(b *testing.B) {
	eng := sim.NewEngine(1)
	mem := hostmem.New(4)
	buf, err := mem.Allocate(hostmem.HugePageSize)
	if err != nil {
		b.Fatal(err)
	}
	m := Platform10G()
	set, clear := []byte{1}, []byte{0}
	complete := func() {
		if err := mem.WriteVirt(buf.Base(), set); err != nil {
			b.Error(err)
		}
	}
	eng.Go("poller", func(p *sim.Process) {
		for i := 0; i < b.N; i++ {
			if err := mem.WriteVirt(buf.Base(), clear); err != nil {
				b.Error(err)
			}
			eng.Schedule(2*sim.Microsecond, complete)
			if err := m.PollNonZero(p, mem, buf.Base(), 0); err != nil {
				b.Error(err)
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}
