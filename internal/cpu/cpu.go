// Package cpu models the host processor of a StRoM machine: memory
// latency, doorbell issue rate, polling, and the software baselines the
// paper compares against (CRC64 checking, radix partitioning, and
// multi-threaded HyperLogLog). The computations are real — checksums are
// checked, tuples are partitioned, sketches are updated — while the time
// they take follows a cost model calibrated to the paper's measurements.
package cpu

import (
	"fmt"
	"sync"

	"strom/internal/crc"
	"strom/internal/hll"
	"strom/internal/hostmem"
	"strom/internal/sim"
)

// Model is the host CPU cost model.
type Model struct {
	// FreqGHz is the core clock (Intel i7-7700 @ 3.6 GHz, §7.2).
	FreqGHz float64
	// MemLatency is a dependent memory access (~80 ns, footnote 7).
	MemLatency sim.Duration
	// PollInterval is one spin-loop iteration when polling on a memory
	// location for RDMA completion (§4.3: applications use polling).
	PollInterval sim.Duration
	// DoorbellInterval is the minimum gap between memory-mapped AVX2
	// stores to the NIC — the message-rate limiter of §7.1.
	DoorbellInterval sim.Duration
	// CRC64BytesPerNs is the software CRC64 rate; CRC64 is inherently
	// sequential on a CPU (footnote 8), about one byte per cycle.
	CRC64BytesPerNs float64
	// PartitionNsPerTuple is the software radix-partition cost per 8 B
	// tuple: hash, buffer copy, and occasional buffer flush (§6.4).
	PartitionNsPerTuple float64
	// MemcpyGBps is the streaming copy bandwidth.
	MemcpyGBps float64
	// HLL throughput model (Fig. 13a): per-thread rate capped by a
	// saturating memory-bandwidth term B*t/(t+K).
	HLLPerThreadGbps float64
	HLLSaturationB   float64
	HLLSaturationK   float64
}

// Platform10G returns the host model of the 10 G testbed.
func Platform10G() Model {
	m := defaultModel()
	m.DoorbellInterval = 140 * sim.Nanosecond // ~7.1 M doorbells/s (Fig. 5c)
	return m
}

// Platform100G returns the host model of the 100 G testbed; its I/O
// subsystem sustains a much higher doorbell rate (Fig. 12c).
func Platform100G() Model {
	m := defaultModel()
	m.DoorbellInterval = 25 * sim.Nanosecond // ~40 M doorbells/s
	return m
}

func defaultModel() Model {
	return Model{
		FreqGHz:             3.6,
		MemLatency:          80 * sim.Nanosecond,
		PollInterval:        100 * sim.Nanosecond,
		DoorbellInterval:    140 * sim.Nanosecond,
		CRC64BytesPerNs:     1.8, // ~0.5 byte/cycle at 3.6 GHz: table-driven CRC64 with load-use stalls
		PartitionNsPerTuple: 1.05,
		MemcpyGBps:          10,
		HLLPerThreadGbps:    4.64,
		HLLSaturationB:      36.21,
		HLLSaturationK:      3.871,
	}
}

// CRC64Duration is the time to checksum n bytes in software.
func (m Model) CRC64Duration(n int) sim.Duration {
	return sim.Nanoseconds(float64(n) / m.CRC64BytesPerNs)
}

// PartitionDuration is the time to radix-partition n 8 B tuples in
// software (the extra pass and copy of the Barthels et al. baseline).
func (m Model) PartitionDuration(tuples int) sim.Duration {
	return sim.Nanoseconds(float64(tuples) * m.PartitionNsPerTuple)
}

// MemcpyDuration is the time to stream-copy n bytes.
func (m Model) MemcpyDuration(n int) sim.Duration {
	return sim.Nanoseconds(float64(n) / m.MemcpyGBps)
}

// HLLThroughputGbps is the sustained software HyperLogLog rate with the
// given thread count: linear until the shared memory system saturates.
// Calibrated to Fig. 13a: 4.64 / 9.28 / 18.40 / 24.40 Gbit/s for 1/2/4/8
// threads.
func (m Model) HLLThroughputGbps(threads int) float64 {
	if threads < 1 {
		return 0
	}
	t := float64(threads)
	linear := m.HLLPerThreadGbps * t
	saturating := m.HLLSaturationB * t / (t + m.HLLSaturationK)
	if saturating < linear {
		return saturating
	}
	return linear
}

// HLLDuration is the time for `threads` cores to run HLL over n bytes.
func (m Model) HLLDuration(n int, threads int) sim.Duration {
	gbps := m.HLLThroughputGbps(threads)
	return sim.BytesAt(n, gbps)
}

// ErrPollTimeout reports that polling gave up. It wraps
// sim.ErrDeadlineExceeded, so callers can treat poll timeouts and verb
// deadline expiries uniformly with one errors.Is check.
var ErrPollTimeout = fmt.Errorf("cpu: poll timeout: %w", sim.ErrDeadlineExceeded)

// Poll spins on [va, va+n) in host memory until pred accepts the bytes:
// one load per PollInterval, and the load that succeeds still pays
// MemLatency. The loop's phase relative to the completing DMA write is
// arbitrary, so the first load comes a random offset of up to one interval
// after the call, modelling the alignment jitter real measurements show in
// their percentile whiskers. Later loads fall on the grid
// first + k·PollInterval.
//
// Loads that find nothing new are not simulated: after a failed load the
// poll parks with a hostmem.Watch on the range, and a write at t wakes it
// for the load at the first grid instant ≥ t — the one the spinning CPU
// would make next, so a write landing exactly on a grid instant is seen
// at that instant. pred must therefore be a pure function of the bytes
// (and must not keep them; the buffer is the caller's on return). A wait
// costs the same few events however long it lasts.
//
// A zero timeout polls forever: a poll that nothing writes stays parked
// and does not keep the simulation alive, so Run returns with its process
// still parked. Otherwise the poll loads once more at the first grid
// instant past start+timeout and fails with ErrPollTimeout if that load
// fails too. A zero PollInterval makes every instant a grid instant.
func (m Model) Poll(p *sim.Process, mem *hostmem.Memory, va hostmem.Addr, n int, pred func([]byte) bool, timeout sim.Duration) ([]byte, error) {
	if n < 0 {
		return nil, hostmem.ErrBadLength
	}
	start := p.Now()
	if m.PollInterval > 0 {
		p.Sleep(sim.Duration(p.Engine().Rand().Int63n(int64(m.PollInterval))))
	}
	data := make([]byte, n)
	var w *pollWatch // registered after the first failed load
	for {
		if err := mem.ReadVirtInto(va, data); err != nil {
			w.release(mem)
			return nil, err
		}
		if pred(data) {
			w.release(mem)
			p.Sleep(m.MemLatency)
			return data, nil
		}
		if timeout > 0 && p.Now().Sub(start) > timeout {
			w.release(mem)
			return nil, ErrPollTimeout
		}
		if w == nil {
			w = pollWatches.Get().(*pollWatch)
			w.p, w.first, w.interval = p, p.Now(), m.PollInterval
			if err := mem.Watch(&w.Watch, va, n, w.wakeFn); err != nil {
				w.release(mem)
				return nil, err
			}
		}
		var deadline sim.Time
		if timeout > 0 {
			deadline = w.grid(start.Add(timeout) + 1)
		}
		p.ParkUntil(deadline)
	}
}

// pollWatch is a parked poll: its process, its load grid and the watch on
// its range. Records are recycled, so a poll allocates only the buffer it
// returns.
type pollWatch struct {
	hostmem.Watch
	p        *sim.Process
	first    sim.Time // the first load; the rest fall on first + k·interval
	interval sim.Duration
	wakeFn   func() // wake, bound once per record
}

var pollWatches = sync.Pool{New: func() any {
	w := new(pollWatch)
	w.wakeFn = w.wake
	return w
}}

// grid returns the first load instant at or after t ≥ w.first.
func (w *pollWatch) grid(t sim.Time) sim.Time {
	if w.interval <= 0 {
		return t
	}
	k := (t.Sub(w.first) + w.interval - 1) / w.interval
	return w.first.Add(k * w.interval)
}

// wake is the watch function: a write now moves the poll's next load to
// the grid instant the spin loop would have seen it at.
func (w *pollWatch) wake() { w.p.WakeBy(w.grid(w.p.Now())) }

// release unwatches the range and recycles the record (nil: nothing to do).
func (w *pollWatch) release(mem *hostmem.Memory) {
	if w == nil {
		return
	}
	mem.Unwatch(&w.Watch)
	w.p = nil
	pollWatches.Put(w)
}

// PollNonZero polls until the first byte of the region becomes non-zero —
// the ping-pong completion idiom of §6.1.
func (m Model) PollNonZero(p *sim.Process, mem *hostmem.Memory, va hostmem.Addr, timeout sim.Duration) error {
	_, err := m.Poll(p, mem, va, 1, func(b []byte) bool { return b[0] != 0 }, timeout)
	return err
}

// CheckCRC64 verifies an object whose last 8 bytes hold the CRC64 of the
// rest (little endian), charging the software checksum time. It returns
// whether the object is consistent (§6.3 "READ+SW").
func (m Model) CheckCRC64(p *sim.Process, obj []byte) bool {
	p.Sleep(m.CRC64Duration(len(obj)))
	return VerifyCRC64(obj)
}

// VerifyCRC64 is the untimed check (shared with the consistency kernel).
func VerifyCRC64(obj []byte) bool {
	if len(obj) < 8 {
		return false
	}
	body, tail := obj[:len(obj)-8], obj[len(obj)-8:]
	var want uint64
	for i := 7; i >= 0; i-- {
		want = want<<8 | uint64(tail[i])
	}
	return crc.Checksum64(body) == want
}

// StampCRC64 writes the CRC64 of obj[:len-8] into the trailing 8 bytes.
func StampCRC64(obj []byte) {
	if len(obj) < 8 {
		return
	}
	sum := crc.Checksum64(obj[:len(obj)-8])
	for i := 0; i < 8; i++ {
		obj[len(obj)-8+i] = byte(sum >> (8 * i))
	}
}

// SoftwareHLL consumes a stream of 8 B items on `threads` cores,
// maintaining a real sketch while charging modelled time (Fig. 13a).
type SoftwareHLL struct {
	model   Model
	threads int
	sketch  *hll.Sketch
	busy    *sim.Serializer
	bytes   uint64
}

// NewSoftwareHLL builds the CPU-side HLL baseline.
func NewSoftwareHLL(eng *sim.Engine, model Model, threads, precision int) *SoftwareHLL {
	return &SoftwareHLL{
		model:   model,
		threads: threads,
		sketch:  hll.MustNew(precision),
		busy:    sim.NewSerializer(eng),
	}
}

// Ingest absorbs a batch of bytes (treated as packed 8 B values) and
// returns the simulated time at which the CPU finishes digesting it.
func (s *SoftwareHLL) Ingest(data []byte) sim.Time {
	for i := 0; i+8 <= len(data); i += 8 {
		var v uint64
		for j := 0; j < 8; j++ {
			v |= uint64(data[i+j]) << (8 * j)
		}
		s.sketch.Add(v)
	}
	s.bytes += uint64(len(data))
	return s.busy.Reserve(s.model.HLLDuration(len(data), s.threads))
}

// Estimate returns the sketch's cardinality estimate.
func (s *SoftwareHLL) Estimate() float64 { return s.sketch.Estimate() }

// BusyUntil reports when the CPU pipeline drains.
func (s *SoftwareHLL) BusyUntil() sim.Time { return s.busy.NextFree() }

// Bytes reports the total bytes ingested.
func (s *SoftwareHLL) Bytes() uint64 { return s.bytes }
