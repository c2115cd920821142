package cpu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// spinPoll is Model.Poll as the literal spin loop it models — one load
// every PollInterval — and the reference the event-free Poll must match.
func spinPoll(m Model, p *sim.Process, mem *hostmem.Memory, va hostmem.Addr, n int, pred func([]byte) bool, timeout sim.Duration) ([]byte, error) {
	if n < 0 {
		return nil, hostmem.ErrBadLength
	}
	start := p.Now()
	if m.PollInterval > 0 {
		p.Sleep(sim.Duration(p.Engine().Rand().Int63n(int64(m.PollInterval))))
	}
	data := make([]byte, n)
	for {
		if err := mem.ReadVirtInto(va, data); err != nil {
			return nil, err
		}
		if pred(data) {
			p.Sleep(m.MemLatency)
			return data, nil
		}
		if timeout > 0 && p.Now().Sub(start) > timeout {
			return nil, ErrPollTimeout
		}
		p.Sleep(m.PollInterval)
	}
}

type pollFunc func(Model, *sim.Process, *hostmem.Memory, hostmem.Addr, int, func([]byte) bool, sim.Duration) ([]byte, error)

// pollCase is one poll on a fresh engine and memory: the range, when the
// poll starts, its timeout, and the writes other events make meanwhile.
type pollCase struct {
	seed     int64
	interval sim.Duration
	pages    int // huge pages the range touches: 1, 2 or 3
	start    sim.Duration
	timeout  sim.Duration
	writes   []pollWrite
}

// pollWrite stores val at range offset off (negative or past the end
// for a neighbour) at time at, by VA or, when phys, by PA.
type pollWrite struct {
	at   sim.Time
	off  int
	val  []byte
	phys bool
}

// pollResult is everything a poll's caller can observe.
type pollResult struct {
	done    bool
	at      sim.Time
	data    []byte
	err     error
	nextRNG int64  // the engine's next draw after the run
	fired   uint64 // events the run fired
}

// rangeOf is the range a case polls: 8 bytes inside one page, 8 across a
// page boundary, or a page and 16 bytes across three, in a buffer whose
// physical pages are scattered.
func (c pollCase) rangeOf(buf *hostmem.Buffer) (hostmem.Addr, int) {
	switch c.pages {
	case 2:
		return buf.Base() + hostmem.HugePageSize - 4, 8
	case 3:
		return buf.Base() + hostmem.HugePageSize - 8, hostmem.HugePageSize + 16
	}
	return buf.Base() + 4096, 8
}

// pollPred accepts the range once its first and last bytes are both 1.
func pollPred(b []byte) bool { return b[0] == 1 && b[len(b)-1] == 1 }

func (c pollCase) run(t *testing.T, poll pollFunc) pollResult {
	t.Helper()
	eng := sim.NewEngine(c.seed)
	eng.SetHorizon(sim.Time(sim.Millisecond))
	mem := hostmem.New(8)
	buf, err := mem.Allocate(4 * hostmem.HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	va, n := c.rangeOf(buf)
	m := Platform10G()
	m.PollInterval = c.interval
	var r pollResult
	eng.Go("poller", func(p *sim.Process) {
		p.Sleep(c.start)
		r.data, r.err = poll(m, p, mem, va, n, pollPred, c.timeout)
		r.done, r.at = true, p.Now()
	})
	for _, w := range c.writes {
		eng.ScheduleAt(w.at, func() {
			at := va + hostmem.Addr(w.off)
			if !w.phys {
				if err := mem.WriteVirt(at, w.val); err != nil {
					t.Error(err)
				}
				return
			}
			pa, err := mem.Translate(at)
			if err == nil {
				err = mem.WritePhys(pa, w.val)
			}
			if err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run()
	r.nextRNG, r.fired = eng.Rand().Int63(), eng.Fired()
	return r
}

// randomPollCase draws a schedule: writes inside and outside the range,
// by VA and by PA, that set, clear or miss the bytes pred looks at, with
// no write on an instant the poll loads at (ties are pinned separately).
func randomPollCase(rng *rand.Rand, seed int64) pollCase {
	c := pollCase{
		seed:     seed,
		interval: []sim.Duration{100 * sim.Nanosecond, 37*sim.Nanosecond + 501}[rng.Intn(2)],
		pages:    1 + rng.Intn(2),
		start:    sim.Duration(rng.Int63n(int64(300 * sim.Nanosecond))),
	}
	if rng.Intn(10) == 0 {
		c.pages = 3
	}
	switch rng.Intn(6) {
	case 0, 1:
	case 2:
		c.timeout = 1 // already past the deadline, as consistency.Poll passes it
	default:
		c.timeout = 1 + sim.Duration(rng.Int63n(int64(3*sim.Microsecond)))
	}
	n := 8
	if c.pages == 3 {
		n = hostmem.HugePageSize + 16
	}
	// The poll's phase is the engine's first draw.
	first := sim.Time(c.start) + sim.Time(rand.New(rand.NewSource(seed)).Int63n(int64(c.interval)))
	offTie := func(at sim.Time) sim.Time {
		if at >= first && at.Sub(first)%c.interval == 0 {
			return at + 1
		}
		return at
	}
	horizon := int64(c.start) + int64(3*sim.Microsecond)
	offsets := []int{0, n - 1, n / 2, -1, n, -64}
	for i, k := 0, rng.Intn(8); i < k; i++ {
		w := pollWrite{
			at:   offTie(sim.Time(rng.Int63n(horizon))),
			off:  offsets[rng.Intn(len(offsets))],
			val:  []byte{byte(rng.Intn(3))},
			phys: rng.Intn(2) == 0,
		}
		if rng.Intn(4) == 0 { // one store over the whole range
			w.off, w.val, w.phys = 0, bytes.Repeat([]byte{byte(rng.Intn(2))}, n), false
		}
		c.writes = append(c.writes, w)
		if rng.Intn(4) == 0 { // and undo it within the same interval
			undo := w
			undo.at = offTie(w.at + sim.Time(rng.Int63n(int64(c.interval))))
			undo.val = make([]byte, len(w.val))
			c.writes = append(c.writes, undo)
		}
	}
	if c.timeout == 0 || rng.Intn(2) == 0 { // a zero timeout needs an ending
		end := offTie(sim.Time(horizon + rng.Int63n(int64(sim.Microsecond))))
		c.writes = append(c.writes,
			pollWrite{at: end, off: 0, val: []byte{1}, phys: rng.Intn(2) == 0},
			pollWrite{at: end, off: n - 1, val: []byte{1}, phys: rng.Intn(2) == 0})
	}
	return c
}

// The event-free Poll returns what the spin loop returns — time, bytes,
// error — and leaves the RNG where the spin loop leaves it, on random
// schedules with no write on a load instant.
func TestPollMatchesSpinLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	cases := []pollCase{{ // set then cleared within one interval, then set for good
		seed: 3, interval: 100 * sim.Nanosecond, pages: 1, writes: []pollWrite{
			{at: 1000_001, off: 0, val: []byte{1, 0, 0, 0, 0, 0, 0, 1}},
			{at: 1030_001, off: 0, val: []byte{0}},
			{at: 2500_001, off: 0, val: []byte{1}},
		}}}
	for i := 0; i < 400; i++ {
		cases = append(cases, randomPollCase(rng, int64(i+1)))
	}
	outcomes := map[error]int{}
	for i, c := range cases {
		want, got := c.run(t, spinPoll), c.run(t, Model.Poll)
		if !want.done {
			t.Fatalf("case %d: the reference never returned", i)
		}
		outcomes[want.err]++
		if got.done != want.done || got.at != want.at || !bytes.Equal(got.data, want.data) ||
			got.err != want.err || got.nextRNG != want.nextRNG {
			t.Errorf("case %d %+v:\n got done=%v at %v err=%v rng=%d\nwant done=%v at %v err=%v rng=%d",
				i, c, got.done, got.at, got.err, got.nextRNG, want.done, want.at, want.err, want.nextRNG)
		}
	}
	if outcomes[nil] < 100 || outcomes[ErrPollTimeout] < 50 {
		t.Errorf("outcomes %v: the schedules no longer exercise both success and timeout", outcomes)
	}
}

// pollWord is Model.PollWord behind the byte-buffer signature of Poll,
// for ranges of one word.
func pollWord(m Model, p *sim.Process, mem *hostmem.Memory, va hostmem.Addr, n int, pred func([]byte) bool, timeout sim.Duration) ([]byte, error) {
	if n != 8 {
		panic("pollWord polls one 8-byte word")
	}
	word, err := m.PollWord(p, mem, va, func(w uint64) bool {
		return pred(binary.LittleEndian.AppendUint64(nil, w))
	}, timeout)
	if err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint64(nil, word), nil
}

// PollWord is Poll of one word: on the same write schedules it returns
// at the same instant with the same word or error, and fires the same
// events, so switching a status poll to it moves no simulated value.
func TestPollWordMatchesPoll(t *testing.T) {
	const seed = 1
	m := Platform10G()
	in := m.PollInterval
	first := sim.Time(rand.New(rand.NewSource(seed)).Int63n(int64(in)))
	if first <= 1 {
		t.Fatalf("phase %v leaves no instant before the first load", first)
	}
	const timeout = sim.Microsecond
	word := []byte{1, 0, 0, 0, 0, 0, 0, 1}
	scripted := func(timeout sim.Duration, writeAt ...sim.Time) pollCase {
		c := pollCase{seed: seed, interval: in, pages: 1, timeout: timeout}
		for _, at := range writeAt {
			c.writes = append(c.writes, pollWrite{at: at, val: word})
		}
		return c
	}
	scripts := []struct {
		name     string
		c        pollCase
		timesOut bool
	}{
		{"no write, timeout", scripted(timeout), true},
		{"write before the first load", scripted(0, first/2), false},
		{"write between grid instants", scripted(0, first.Add(3*in+in/2)), false},
		{"write on a grid instant", scripted(0, first.Add(5*in)), false},
		{"write on a grid instant, with timeout", scripted(timeout, first.Add(5*in)), false},
		{"write after the timeout", scripted(timeout, sim.Time(timeout).Add(2*in)), true},
	}
	var names []string
	var cases []pollCase
	for _, sc := range scripts {
		names, cases = append(names, sc.name), append(cases, sc.c)
	}
	rng := rand.New(rand.NewSource(38))
	for i := 1; len(cases) < 200; i++ {
		if c := randomPollCase(rng, int64(i)); c.pages < 3 {
			cases = append(cases, c)
			names = append(names, fmt.Sprintf("random %d", i))
		}
	}
	for i, c := range cases {
		want, got := c.run(t, Model.Poll), c.run(t, pollWord)
		if !want.done {
			t.Fatalf("%s: Poll never returned", names[i])
		}
		if timedOut := want.err == ErrPollTimeout; i < len(scripts) && timedOut != scripts[i].timesOut {
			t.Errorf("%s: Poll returned %v, the script no longer tests what it names", names[i], want.err)
		}
		if got.done != want.done || got.at != want.at || !bytes.Equal(got.data, want.data) ||
			got.err != want.err || got.fired != want.fired || got.nextRNG != want.nextRNG {
			t.Errorf("%s:\n got at %v data %x err %v, %d events\nwant at %v data %x err %v, %d events",
				names[i], got.at, got.data, got.err, got.fired, want.at, want.data, want.err, want.fired)
		}
	}
}

// The tie rule: a write landing exactly on a load instant is seen at that
// instant, even when it lands after that instant's load — the spin loop
// saw it only a PollInterval later.
func TestPollSeesWriteOnLoadInstant(t *testing.T) {
	const seed = 1
	m := Platform10G()
	phase := sim.Duration(rand.New(rand.NewSource(seed)).Int63n(int64(m.PollInterval)))
	if phase <= 1 {
		t.Fatalf("phase %v leaves no time to queue the write after the first load", phase)
	}
	first := sim.Time(phase)
	for _, c := range []struct {
		name string
		poll pollFunc
		want sim.Time
	}{
		{"Poll", Model.Poll, first.Add(m.MemLatency)},
		{"spin loop", spinPoll, first.Add(m.PollInterval + m.MemLatency)},
	} {
		eng := sim.NewEngine(seed)
		mem := hostmem.New(4)
		buf, _ := mem.Allocate(hostmem.HugePageSize)
		var done sim.Time
		eng.Go("poller", func(p *sim.Process) {
			if _, err := c.poll(m, p, mem, buf.Base(), 1, func(b []byte) bool { return b[0] != 0 }, 0); err != nil {
				t.Error(err)
			}
			done = p.Now()
		})
		// Queued after the poll's first load, at that load's instant.
		eng.Schedule(1, func() {
			eng.ScheduleAt(first, func() {
				eng.Schedule(0, func() {
					if err := mem.WriteVirt(buf.Base(), []byte{1}); err != nil {
						t.Error(err)
					}
				})
			})
		})
		eng.Run()
		if done != c.want {
			t.Errorf("%s returned at %v, want %v", c.name, done, c.want)
		}
	}
}

// With a zero PollInterval every instant is a load instant: the poll
// loads at the write's own instant. The spin loop slept 0 forever and
// simulated time never moved.
func TestPollZeroIntervalReadsAtTheWrite(t *testing.T) {
	m := Platform10G()
	m.PollInterval = 0
	eng := sim.NewEngine(1)
	eng.SetHorizon(sim.Time(sim.Millisecond))
	mem := hostmem.New(4)
	buf, _ := mem.Allocate(hostmem.HugePageSize)
	loads := 0
	var done sim.Time
	eng.Go("poller", func(p *sim.Process) {
		if err := m.PollNonZero(p, mem, buf.Base(), 0); err != nil {
			t.Error(err)
		}
		done = p.Now()
	})
	write := sim.Time(5*sim.Microsecond + 3)
	eng.ScheduleAt(write, func() {
		if err := mem.WriteVirt(buf.Base(), []byte{1}); err != nil {
			t.Error(err)
		}
	})
	// A guard on the loads, so that a livelocked loop panics out of Run
	// instead of hanging the test.
	eng.Go("guard", func(p *sim.Process) {
		if _, err := m.Poll(p, mem, buf.Base()+64, 1, func([]byte) bool {
			if loads++; loads > 1000 {
				panic(fmt.Sprintf("livelock: %d loads with simulated time stuck at %v", loads, eng.Now()))
			}
			return false
		}, 0); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if want := write.Add(m.MemLatency); done != want {
		t.Errorf("poll returned at %v, want the write's instant plus MemLatency, %v", done, want)
	}
}

// A rejected call consumes neither simulated time nor an RNG draw.
func TestPollBadLengthIsFree(t *testing.T) {
	eng := sim.NewEngine(7)
	mem := hostmem.New(4)
	buf, _ := mem.Allocate(hostmem.HugePageSize)
	var err error
	var at sim.Time
	eng.Go("poller", func(p *sim.Process) {
		p.Sleep(sim.Microsecond)
		_, err = Platform10G().Poll(p, mem, buf.Base(), -1, func([]byte) bool { return true }, 0)
		at = p.Now()
	})
	eng.Run()
	if !errors.Is(err, hostmem.ErrBadLength) || at != sim.Time(sim.Microsecond) {
		t.Errorf("err = %v at %v, want ErrBadLength at 1us", err, at)
	}
	if got, want := eng.Rand().Int63(), rand.New(rand.NewSource(7)).Int63(); got != want {
		t.Error("a rejected poll drew from the RNG")
	}
}

// A second write at the instant the woken poll is about to load — after
// the wake, before the load — does not wake it again: the sleep after the
// poll lasts its full length.
func TestPollWriteAtWakeInstantWakesOnce(t *testing.T) {
	const seed = 1
	m := Platform10G()
	first := sim.Time(rand.New(rand.NewSource(seed)).Int63n(int64(m.PollInterval)))
	load := first.Add(10 * m.PollInterval) // the load the first write moves the poll to
	eng := sim.NewEngine(seed)
	mem := hostmem.New(4)
	buf, _ := mem.Allocate(hostmem.HugePageSize)
	var polled, slept sim.Time
	eng.Go("poller", func(p *sim.Process) {
		if err := m.PollNonZero(p, mem, buf.Base(), 0); err != nil {
			t.Error(err)
		}
		polled = p.Now()
		p.Sleep(sim.Microsecond)
		slept = p.Now()
	})
	write := func(v byte) func() {
		return func() {
			if err := mem.WriteVirt(buf.Base(), []byte{v}); err != nil {
				t.Error(err)
			}
		}
	}
	eng.ScheduleAt(load-1, func() {
		write(1)()
		eng.ScheduleAt(load, write(2)) // queued behind the wake
	})
	eng.Run()
	if want := load.Add(m.MemLatency); polled != want || slept != want.Add(sim.Microsecond) {
		t.Errorf("polled until %v and slept until %v, want %v and %v", polled, slept, want, want.Add(sim.Microsecond))
	}
}

// A zero-timeout poll nothing writes holds no event: Run returns and the
// process stays parked, holding one watch.
func TestPollUnwrittenDoesNotKeepEngineAlive(t *testing.T) {
	eng := sim.NewEngine(1)
	mem := hostmem.New(4)
	buf, _ := mem.Allocate(hostmem.HugePageSize)
	p := eng.Go("poller", func(p *sim.Process) {
		_ = Platform10G().PollNonZero(p, mem, buf.Base(), 0)
	})
	if end := eng.Run(); end >= sim.Time(Platform10G().PollInterval) {
		t.Errorf("Run ended at %v, after the first load", end)
	}
	if p.Done() || mem.Watches() != 1 {
		t.Errorf("done = %v, watches = %d; want parked with one watch", p.Done(), mem.Watches())
	}
}

// Watches come off on every way out of a poll — success, timeout, read
// error — and never outnumber the parked pollers.
func TestPollRemovesItsWatch(t *testing.T) {
	m := Platform10G()
	eng := sim.NewEngine(1)
	mem := hostmem.New(8)
	buf, _ := mem.Allocate(hostmem.HugePageSize)
	doomed, _ := mem.Allocate(hostmem.HugePageSize)
	const pollers = 3
	errs := map[string]error{}
	var most int
	track := func() {
		most = max(most, mem.Watches())
	}
	for i := 0; i < pollers; i++ {
		eng.Go("ok", func(p *sim.Process) {
			for j := 0; j < 20; j++ {
				if err := m.PollNonZero(p, mem, buf.Base()+hostmem.Addr(j), 0); err != nil {
					t.Error(err)
				}
			}
		})
	}
	for j := 0; j < 20; j++ {
		eng.Schedule(sim.Duration(j+1)*sim.Microsecond+7, func() {
			track()
			if err := mem.WriteVirt(buf.Base()+hostmem.Addr(j), []byte{1}); err != nil {
				t.Error(err)
			}
		})
	}
	eng.Go("timeout", func(p *sim.Process) {
		errs["timeout"] = m.PollNonZero(p, mem, buf.Base()+1000, 5*sim.Microsecond)
	})
	eng.Go("read error", func(p *sim.Process) {
		errs["read error"] = m.PollNonZero(p, mem, doomed.Base(), 0)
	})
	eng.Schedule(3*sim.Microsecond+7, func() {
		track()
		if err := doomed.Free(); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if !errors.Is(errs["timeout"], ErrPollTimeout) || !errors.Is(errs["read error"], hostmem.ErrNotMapped) {
		t.Errorf("errors = %v", errs)
	}
	if mem.Watches() != 0 {
		t.Errorf("%d watches left behind", mem.Watches())
	}
	if most != pollers+2 {
		t.Errorf("at most %d watches, want one per parked poller, %d", most, pollers+2)
	}
}

// The cost of a poll is its writes, not its wait: a 2 µs wait and a
// 200 µs one fire the same number of events.
func TestPollEventsIndependentOfWait(t *testing.T) {
	events := func(wait sim.Duration) uint64 {
		eng := sim.NewEngine(1)
		mem := hostmem.New(4)
		buf, _ := mem.Allocate(hostmem.HugePageSize)
		eng.Go("poller", func(p *sim.Process) {
			if err := Platform10G().PollNonZero(p, mem, buf.Base(), 0); err != nil {
				t.Error(err)
			}
		})
		eng.Schedule(wait, func() {
			if err := mem.WriteVirt(buf.Base(), []byte{1}); err != nil {
				t.Error(err)
			}
		})
		eng.Run()
		return eng.Fired()
	}
	if short, long := events(2*sim.Microsecond), events(200*sim.Microsecond); short != long {
		t.Errorf("%d events for a 2us wait, %d for 200us", short, long)
	}
}

// BenchmarkPoll is one completion poll of the kind a spilled KV Get or a
// kernel RPC ends with: the word turns non-zero 2 µs after the poll
// starts, twenty PollInterval loads later for a spinning CPU. The poll
// parks until that write, so events/op does not grow with the wait.
// Neither a byte poll nor a word poll allocates.
func BenchmarkPoll(b *testing.B) {
	nonZero := func(w uint64) bool { return w != 0 }
	for _, bc := range []struct {
		name string
		poll func(Model, *sim.Process, *hostmem.Memory, hostmem.Addr) error
	}{
		{"nonzero", func(m Model, p *sim.Process, mem *hostmem.Memory, va hostmem.Addr) error {
			return m.PollNonZero(p, mem, va, 0)
		}},
		{"word", func(m Model, p *sim.Process, mem *hostmem.Memory, va hostmem.Addr) error {
			_, err := m.PollWord(p, mem, va, nonZero, 0)
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
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
					if err := bc.poll(m, p, mem, buf.Base()); err != nil {
						b.Error(err)
					}
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run()
			b.ReportMetric(float64(eng.Fired())/float64(b.N), "events/op")
		})
	}
}
