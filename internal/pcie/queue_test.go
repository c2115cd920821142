package pcie

import (
	"testing"

	"strom/internal/hostmem"
	"strom/internal/sim"
)

// The kinds of step in FuzzDMAQueueMatchesPlainEvents' script.
const (
	opWrite  = iota // WriteHost
	opRead          // ReadHost
	opBorrow        // ReadHostBorrowed
	opStream        // ReadHostStream
	opProbe         // a plain event at the time of a delivery booked before it
	numOps
)

// queueOp is one step of the script, issued by an event of its own.
type queueOp struct {
	at    sim.Time
	kind  int
	off   int // byte offset into the rig's buffer; -1: an unmapped address
	n     int
	chunk int // opStream: bytes per delivery
	pick  int // opProbe: which of the deliveries booked so far it lands on
}

// queueScript is a decoded fuzz input: the link, the stall windows the
// StallFn reports, an offline window and the steps.
type queueScript struct {
	cfg     Config
	stalls  [][2]sim.Time
	offline [2]sim.Time // empty when both ends are equal
	ops     []queueOp
}

// delivery is one callback of a run: step op's k-th delivery of n bytes.
type delivery struct {
	op, k, n int
	at       sim.Time
	err      bool
}

// decodeQueueScript reads a script from fuzz bytes; bytes past the end
// read as zero.
func decodeQueueScript(data []byte) queueScript {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	ns := func(k int) sim.Time { return sim.Time(k) * sim.Time(sim.Nanosecond) }
	var s queueScript
	switch next() % 3 {
	case 0:
		s.cfg = Gen3x16()
	case 1:
		s.cfg = Gen3x8()
	default:
		s.cfg = Gen3x16()
		s.cfg.CommandOverhead = 0 // no gap between commands: rounding alone orders them
	}
	for range next() % 3 {
		start := ns(100 * next())
		s.stalls = append(s.stalls, [2]sim.Time{start, start + ns(100*(1+next()%50))})
	}
	start := ns(100 * next())
	s.offline = [2]sim.Time{start, start + ns(100*(next()%20))}
	var at sim.Time
	for len(data) > 0 && len(s.ops) < 64 {
		at += ns(50 * (next() % 8))
		op := queueOp{at: at, kind: next() % numOps}
		op.n = (next()<<8 | next()) % (72 << 10)
		if op.kind != opWrite {
			op.n++ // a read of zero bytes is a caller's error, not a command
		}
		switch p := next(); {
		case p%8 == 7:
			op.off = -1
		case p%8 == 6:
			op.off = hostmem.HugePageSize - op.n/2 // straddles the page boundary
		default:
			op.off = p * 4096
		}
		op.chunk = 256 + 16*next()
		op.pick = next()
		s.ops = append(s.ops, op)
	}
	return s
}

// stallFn reports the time left to the end of the stall window now lies in.
func (s *queueScript) stallFn(now sim.Time) sim.Duration {
	for _, w := range s.stalls {
		if now >= w[0] && now < w[1] {
			return w[1].Sub(now)
		}
	}
	return 0
}

// drive books the script's offline window and steps on eng, the same
// bookings in the same order for both runs.
func (s *queueScript) drive(eng *sim.Engine, setOffline func(bool), issue func(i int)) {
	if s.offline[0] < s.offline[1] {
		eng.ScheduleAt(s.offline[0], func() { setOffline(true) })
		eng.ScheduleAt(s.offline[1], func() { setOffline(false) })
	}
	for i, op := range s.ops {
		eng.ScheduleAt(op.at, func() { issue(i) })
	}
}

// reference runs the script with one plain event per booking, its times
// computed from s.cfg: each segment of a command takes the overhead
// plus its bytes at the link rate on its stream, after what was booked
// there before; a read then takes ReadLatency, a write WriteLatency, and
// a command issued in a stall window the time left to the window's end.
// Chunk k of a read arrives when the bytes behind it are still to cross.
// It returns the deliveries in firing order and the time each probe
// step was booked for.
func (s *queueScript) reference(base hostmem.Addr) ([]delivery, []sim.Time) {
	eng := sim.NewEngine(1)
	var log []delivery
	var booked []sim.Time // every delivery time booked so far
	probeAt := make([]sim.Time, len(s.ops))
	var h2c, c2h sim.Time // when each stream is next free
	offline := false
	record := func(d delivery) func() {
		return func() {
			d.at = eng.Now()
			log = append(log, d)
		}
	}
	book := func(at sim.Time, fn func()) {
		booked = append(booked, at)
		eng.ScheduleAt(at, fn)
	}
	s.drive(eng, func(off bool) { offline = off }, func(i int) {
		op, now := s.ops[i], eng.Now()
		latency, free := s.cfg.ReadLatency, &h2c
		if op.kind == opWrite {
			latency, free = s.cfg.WriteLatency, &c2h
		}
		switch {
		case op.kind == opProbe:
			at := now
			if len(booked) > 0 {
				at = max(now, booked[op.pick%len(booked)])
			}
			probeAt[i] = at
			eng.ScheduleAt(at, record(delivery{op: i}))
			return
		case offline:
			book(now.Add(latency), record(delivery{op: i, err: true}))
			return
		case op.n == 0: // an empty write moves nothing, wherever it points
			book(now.Add(latency), record(delivery{op: i}))
			return
		case op.off < 0:
			book(now.Add(latency), record(delivery{op: i, err: true}))
			return
		}
		finish := max(now, *free)
		for va, left := base+hostmem.Addr(op.off), op.n; left > 0; {
			seg := min(left, hostmem.HugePageSize-int(va.PageOffset()))
			finish = finish.Add(s.cfg.CommandOverhead + sim.BytesAt(seg, s.cfg.BandwidthGbps))
			va += hostmem.Addr(seg)
			left -= seg
		}
		*free = finish
		finish = finish.Add(latency + s.stallFn(now))
		chunk := op.n
		if op.kind == opStream {
			chunk = op.chunk
		}
		// Book chunk k+1 from inside chunk k, as one plain event each.
		var arm func(k int)
		arm = func(k int) {
			end := min((k+1)*chunk, op.n)
			at := finish.Add(-sim.BytesAt(op.n-end, s.cfg.BandwidthGbps))
			rec := record(delivery{op: i, k: k, n: end - k*chunk})
			book(at, func() {
				rec()
				if end < op.n {
					arm(k + 1)
				}
			})
		}
		arm(0)
	})
	eng.Run()
	return log, probeAt
}

// FuzzDMAQueueMatchesPlainEvents is the equivalence check for the
// streams' queues (DESIGN.md §1.3, §3.3): a script of writes, owned,
// borrowed and streamed reads, some across a page boundary, some to an
// unmapped address, under stall windows and an offline window, with
// plain probe events booked onto the instants of earlier deliveries,
// must deliver every commit and chunk in the order and at the time that
// one plain event per booking gives — reference, which computes them
// from the Config alone.
func FuzzDMAQueueMatchesPlainEvents(f *testing.F) {
	// step encodes one step as decodeQueueScript reads it (a read's n is
	// one more than encoded).
	step := func(dt, kind, n, place, chunk, pick int) []byte {
		return []byte{byte(dt), byte(kind), byte(n >> 8), byte(n), byte(place), byte(chunk), byte(pick)}
	}
	seed := func(head []byte, steps ...[]byte) {
		for _, s := range steps {
			head = append(head, s...)
		}
		f.Add(head)
	}
	const mtu = (1408 - 256) / 16 // the chunk byte of a 1408 B chunk
	// Back-to-back writes and reads, probes among them, on the x16 link.
	seed([]byte{0, 0, 0, 0},
		step(0, opWrite, 1408, 1, 0, 0), step(0, opWrite, 64, 2, 0, 0),
		step(0, opStream, 65535, 3, mtu, 0), step(0, opProbe, 0, 0, 0, 3),
		step(1, opRead, 4095, 5, 0, 0), step(0, opBorrow, 99, 4, 0, 0),
		step(2, opProbe, 0, 0, 0, 7), step(0, opStream, 25600, 6, mtu, 0),
		step(1, opWrite, 200, 7, 0, 0), step(0, opProbe, 0, 0, 0, 11),
		step(0, opWrite, 0, 1, 0, 0), step(0, opStream, 65535, 8, mtu, 0),
		step(1, opProbe, 0, 0, 0, 1), step(0, opWrite, 1408, 9, 0, 0))
	// Streamed 64 KiB reads and writes on the x8 link under two stall
	// windows (1-4 µs and 6-7 µs), probes on their deliveries.
	var steps [][]byte
	for i := range 12 {
		steps = append(steps, step(7, opStream, 65535, i, mtu, 0),
			step(0, opWrite, 1408, 20+i, 0, 0), step(0, opProbe, 0, 0, 0, 5*i+1))
	}
	seed([]byte{1, 2, 10, 29, 60, 9, 0, 0}, steps...)
	// Every kind under an offline window (0.5-1.5 µs) and a stall
	// window (2-7 µs), on the overhead-free link.
	steps = steps[:0]
	for i := range 30 {
		steps = append(steps, step(i%4, i%numOps, 977*i, i, i, 3*i))
	}
	seed([]byte{2, 1, 20, 49, 5, 10}, steps...)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeQueueScript(data)
		eng, dma, _, buf := testRig(t, s.cfg, 2)
		want, probeAt := s.reference(buf.Base())
		dma.SetStall(s.stallFn)
		payload := make([]byte, 72<<10)
		var got []delivery
		record := func(d delivery) {
			d.at = eng.Now()
			got = append(got, d)
		}
		s.drive(eng, dma.SetOffline, func(i int) {
			op := s.ops[i]
			va := buf.Base() + hostmem.Addr(op.off)
			if op.off < 0 {
				va = 1 << 40
			}
			k := 0
			read := func(b []byte, err error) {
				record(delivery{op: i, k: k, n: len(b), err: err != nil})
				k++
			}
			switch op.kind {
			case opProbe:
				eng.ScheduleAt(probeAt[i], func() { record(delivery{op: i}) })
			case opWrite:
				dma.WriteHost(va, payload[:op.n], func(err error) {
					if err != nil {
						record(delivery{op: i, err: true})
					} else {
						record(delivery{op: i, n: op.n})
					}
				})
			case opRead:
				dma.ReadHost(va, op.n, read)
			case opBorrow:
				dma.ReadHostBorrowed(va, op.n, read)
			case opStream:
				dma.ReadHostStream(va, op.n, op.chunk, read)
			}
		})
		eng.Run()
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("delivery %d of %d: got %+v, want %+v (op %+v)", i, len(want), got[i], want[i], s.ops[want[i].op])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d deliveries, want %d", len(got), len(want))
		}
	})
}

// TestDMAHoldsOneHeapEntryPerStream is the footprint guard for the
// streams' queues: with 256 DMA writes and 64 streamed 64 KiB reads in
// flight and no stall, the event heap holds each stream's head and the
// streaming read's next chunk, not one entry per command.
func TestDMAHoldsOneHeapEntryPerStream(t *testing.T) {
	eng, dma, _, buf := testRig(t, Gen3x16(), 2)
	const writes, reads, n = 256, 64, 64 << 10
	payload := make([]byte, 1408)
	peak, wrote, streamed := 0, 0, 0
	watch := func() { peak = max(peak, eng.Pending()) }
	eng.Schedule(0, func() {
		for i := range writes {
			dma.WriteHost(buf.Base()+hostmem.Addr(i*2048), payload, func(err error) {
				if err != nil {
					t.Error(err)
				}
				wrote++
				watch()
			})
		}
		for i := range reads {
			dma.ReadHostStream(buf.Base()+hostmem.Addr(i*n), n, 1408, func(b []byte, err error) {
				if err != nil {
					t.Error(err)
				}
				streamed += len(b)
				watch()
			})
		}
		watch()
	})
	eng.Run()
	if wrote != writes || streamed != reads*n {
		t.Fatalf("%d of %d writes, %d of %d bytes read", wrote, writes, streamed, reads*n)
	}
	if peak > 3 {
		t.Errorf("%d events pending with %d DMA commands in flight, want at most 3", peak, writes+reads)
	}
}

// BenchmarkDMABurst is the host cost of a deep stream: 4 096 write and
// 4 096 borrowed-read commands booked at once and drained, per
// iteration. The queues hold them for two heap entries and allocate
// nothing once their rings and the command free lists have grown.
func BenchmarkDMABurst(b *testing.B) {
	const burst = 4096
	eng, dma, _, buf := testRig(b, Gen3x16(), 1)
	payload := make([]byte, 64)
	wrote := func(error) {}
	read := func([]byte, error) {}
	issue := func() {
		for i := range burst {
			va := buf.Base() + hostmem.Addr(i*64)
			dma.WriteHost(va, payload, wrote)
			dma.ReadHostBorrowed(va, 64, read)
		}
	}
	run := func() {
		eng.Schedule(0, issue)
		eng.Run()
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*burst*b.N), "ns/cmd")
}
