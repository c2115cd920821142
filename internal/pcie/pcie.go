// Package pcie models the host interconnect of the StRoM NIC (§4.3): the
// Xilinx XDMA-style DMA engine with descriptor bypass, the memory-mapped
// register path used for doorbells, and the PCIe link itself. The two DMA
// stream directions (card-to-host and host-to-card) are independent
// serialized resources, mirroring the two 32 B streaming interfaces of the
// real IP core.
//
// Timing is calibrated to the paper: a DMA read of a cache line costs
// roughly 1.5 µs round trip (footnote 7), the Gen3 x8 link of the 10 G
// board has about 6x the network bandwidth, and the Gen3 x16 link of the
// 100 G board is roughly 1:1 with the network (§7).
package pcie

import (
	"errors"
	"fmt"

	"strom/internal/hostmem"
	"strom/internal/packet"
	"strom/internal/sim"
	"strom/internal/telemetry"
	"strom/internal/tlb"
)

// ErrOffline reports a DMA command issued while the device is offline
// (the machine hosting the NIC has crashed).
var ErrOffline = errors.New("pcie: device offline")

// Config describes a PCIe attachment.
type Config struct {
	// Gen and Lanes are informational (they determine the defaults).
	Gen, Lanes int
	// BandwidthGbps is the effective per-direction data bandwidth.
	BandwidthGbps float64
	// ReadLatency is the base round-trip time of a DMA read request
	// before data starts arriving.
	ReadLatency sim.Duration
	// WriteLatency is the one-way posting latency of a DMA write.
	WriteLatency sim.Duration
	// CommandOverhead is the per-descriptor processing cost; many small
	// (or page-split) commands reduce the effective bandwidth, which is
	// what makes random access unable to keep up with 100 G (§7).
	CommandOverhead sim.Duration
	// MMIOWriteLatency is the host-to-device latency of one posted
	// register write (a doorbell).
	MMIOWriteLatency sim.Duration
	// MMIOReadLatency is the host-to-device-and-back latency of one
	// register read (status polling).
	MMIOReadLatency sim.Duration
}

// Gen3x8 returns the configuration of the Alpha Data 7V3 board's link
// (10 G StRoM).
func Gen3x8() Config {
	return Config{
		Gen: 3, Lanes: 8,
		BandwidthGbps:    48, // ~6 GB/s effective, ~6:1 vs 10 G (§7)
		ReadLatency:      1300 * sim.Nanosecond,
		WriteLatency:     600 * sim.Nanosecond,
		CommandOverhead:  20 * sim.Nanosecond,
		MMIOWriteLatency: 300 * sim.Nanosecond,
		MMIOReadLatency:  900 * sim.Nanosecond,
	}
}

// Gen3x16 returns the configuration of the VCU118 board's link (100 G
// StRoM): about 1:1 with the network bandwidth (§7).
func Gen3x16() Config {
	return Config{
		Gen: 3, Lanes: 16,
		BandwidthGbps:    104, // ~13 GB/s effective
		ReadLatency:      1100 * sim.Nanosecond,
		WriteLatency:     500 * sim.Nanosecond,
		CommandOverhead:  20 * sim.Nanosecond,
		MMIOWriteLatency: 300 * sim.Nanosecond,
		MMIOReadLatency:  900 * sim.Nanosecond,
	}
}

// Stats counts DMA engine activity (exposed via the Controller's status
// registers).
type Stats struct {
	ReadCommands  uint64
	WriteCommands uint64
	ReadBytes     uint64
	WriteBytes    uint64
	SplitSegments uint64
	StalledCmds   uint64       // DMA commands delayed by a stall hook
	StallTime     sim.Duration // total extra latency added by stalls
}

// StallFn reports the extra completion latency a DMA command issued at
// now must absorb (zero when the interconnect is healthy). It models
// host-side interference — root-complex backpressure, a busy IOMMU, a
// paused VM — as scheduled stall windows; internal/chaos provides the
// window-driven implementation. The function must be deterministic in
// now.
type StallFn func(now sim.Time) sim.Duration

// Engine is the DMA engine with descriptor bypass: the NIC data path (and
// StRoM kernels) issue commands directly, without CPU synchronization.
type Engine struct {
	eng     *sim.Engine
	mem     *hostmem.Memory
	tlb     *tlb.TLB
	cfg     Config
	h2c     stream          // host-to-card (DMA reads)
	c2h     stream          // card-to-host (DMA writes)
	mmio    *sim.Serializer // register path
	st      Stats
	stall   StallFn // nil when no stall injection is attached
	offline bool    // true while the hosting machine is crashed

	// Recycled command records, one list per stream (see command).
	freeReads, freeWrites []*command

	// Structured tracing (nil when telemetry is disabled).
	tb  *telemetry.TraceBuffer
	pid uint32
}

// stream is one DMA direction: the link its commands' segments are
// booked on and the queue their first commits wait in (DESIGN.md §1.3).
// A command booked for a time earlier than the one booked on the queue
// before it — a stall window has pushed that one past it — is a plain
// event instead, so the queue's times never go back and every commit
// fires at the (time, sequence) a plain event would.
type stream struct {
	link *sim.Serializer
	q    *sim.Backlog[*command]
	last sim.Time // the time of the latest command booked on q
}

// book arms c's first commit for t.
func (s *stream) book(eng *sim.Engine, t sim.Time, c *command) {
	if t < s.last {
		eng.ScheduleAt(t, c.commit)
		return
	}
	s.last = t
	s.q.PushAt(t, c)
}

// Trace track (tid) layout inside the DMA engine's process (pid).
const (
	traceTidH2C = 8 // DMA reads (host-to-card stream)
	traceTidC2H = 9 // DMA writes (card-to-host stream)
)

// AttachTelemetry wires the DMA engine into structured tracing: the
// trace buffer receives one complete span per DMA command on the H2C/C2H
// tracks under pid (tb may be nil). Stats and Utilisation reach the
// metrics registry through the NIC's counter table (internal/core).
func (e *Engine) AttachTelemetry(tb *telemetry.TraceBuffer, pid uint32) {
	if tb != nil {
		tb.NameThread(pid, traceTidH2C, "pcie:h2c")
		tb.NameThread(pid, traceTidC2H, "pcie:c2h")
	}
	e.tb = tb
	e.pid = pid
}

// NewEngine creates a DMA engine bound to a host memory and a NIC TLB.
func NewEngine(eng *sim.Engine, mem *hostmem.Memory, t *tlb.TLB, cfg Config) *Engine {
	return &Engine{
		eng:  eng,
		mem:  mem,
		tlb:  t,
		cfg:  cfg,
		h2c:  newStream(eng),
		c2h:  newStream(eng),
		mmio: sim.NewSerializer(eng),
	}
}

// newStream returns an idle DMA direction on eng.
func newStream(eng *sim.Engine) stream {
	return stream{link: sim.NewSerializer(eng), q: sim.NewBacklog(eng, (*command).run)}
}

// SetStall installs a stall hook consulted once per DMA command (nil
// removes it). The reported extra latency is added to the command's
// completion time; the streams themselves keep serializing, mirroring a
// root complex that stops returning completions while posted work piles
// up.
func (e *Engine) SetStall(fn StallFn) { e.stall = fn }

// stalled applies the stall hook to a command completing at t.
func (e *Engine) stalled(t sim.Time) sim.Time {
	if e.stall == nil {
		return t
	}
	d := e.stall(e.eng.Now())
	if d <= 0 {
		return t
	}
	e.st.StalledCmds++
	e.st.StallTime += d
	return t.Add(d)
}

// Stats returns a snapshot of the activity counters.
func (e *Engine) Stats() Stats { return e.st }

// SetOffline flips the device's availability. While offline, new DMA
// commands fail with ErrOffline after the usual command latency (the
// driver observes a timeout/abort, not silence); commands already in
// flight still complete — the data left the device before power was cut.
func (e *Engine) SetOffline(off bool) { e.offline = off }

// command is one in-flight DMA command: everything its commits
// need — the physical segments, the staged bytes, the caller's
// callback — in a single record the engine recycles, so a command in
// steady state allocates nothing but the result of an owned read.
//
// Ownership: a record is taken in a Read*/WriteHost call, is referenced
// only by its stream's queue until its first commit (or by a plain event,
// when a stall puts it out of order; see stream), then by its own
// re-armed commit event, and goes back to its free list at the end of its
// last commit, after the callback has returned. The heap holds a queued
// command only while it is its stream's head. A read delivers its result
// in chunks (one chunk for ReadHost and ReadHostBorrowed): each commit
// delivers one and re-arms the bound commit as a plain event for the
// next, so a chunk costs one event and no allocation. segs and stage
// keep their capacity across uses. stage holds WriteHost's copy of a
// payload until the commit, and a borrowed read's current chunk for the
// length of its callback; it is never handed out otherwise.
type command struct {
	e         *Engine
	home      *[]*command // the free list this record lives on
	segs      []tlb.Segment
	stage     []byte
	data      []byte   // write: the bytes the commit writes, in stage or in frame
	frame     []byte   // write: WriteHostFrame's frame, returned to packet's free list at the commit
	n         int      // read: result length
	chunk     int      // read: bytes per delivery (n unless streamed)
	off       int      // read: bytes delivered so far
	seg       int      // read: segment holding byte off ...
	segOff    int      // ... and off's position inside it
	finish    sim.Time // read: when the last byte has crossed the link
	mode      readMode // read: who owns a delivered chunk
	readDone  func([]byte, error)
	writeDone func(error)
	commit    func() // c.run, bound once so a plain event never allocates
}

// readMode says what a read's callback is handed.
type readMode uint8

const (
	readOwned    readMode = iota // a fresh buffer the callback keeps
	readBorrowed                 // stage, valid only inside the callback
	// readStreamed is borrowed too, and where a chunk lies inside one
	// physical segment it is host memory itself rather than a copy of it
	// in stage: the consumer of a stream copies the chunk into a frame
	// before it returns, and staging first would be a second copy of every
	// payload byte.
	readStreamed
)

// maxFreeCommands bounds each free list and maxStageBytes the staging
// buffer a listed record may keep; beyond either, memory falls to the
// collector. In practice a list never outgrows the peak number of
// commands in flight on its stream.
const (
	maxFreeCommands = 1 << 12
	maxStageBytes   = 256 << 10
)

// newCommand takes a record from list. Reads and writes recycle
// separately, like the two streams they ride on: a kernel read's staging
// buffer is a whole object, a write's one packet, and mixing them would
// grow every record to object size.
func (e *Engine) newCommand(list *[]*command) *command {
	if n := len(*list); n > 0 {
		c := (*list)[n-1]
		(*list)[n-1] = nil
		*list = (*list)[:n-1]
		return c
	}
	c := &command{e: e, home: list}
	c.commit = c.run
	return c
}

func (c *command) release() {
	c.readDone, c.writeDone, c.data, c.frame = nil, nil, nil, nil
	if cap(c.stage) > maxStageBytes {
		c.stage = nil
	}
	if len(*c.home) < maxFreeCommands {
		*c.home = append(*c.home, c)
	}
}

// reserve books every segment of c on link and returns the command's
// completion time after latency and any injected stall.
func (e *Engine) reserve(c *command, link *sim.Serializer, latency sim.Duration) sim.Time {
	var finish sim.Time
	for _, s := range c.segs {
		finish = link.Reserve(e.cfg.CommandOverhead + sim.BytesAt(s.Len, e.cfg.BandwidthGbps))
	}
	return e.stalled(finish.Add(latency))
}

// run is the commit, fired by the stream's queue or by a plain event:
// the bytes move between host memory and the card at the instant they
// have crossed the link — for a write and a one-chunk read that is the
// command's completion, for a streamed read each chunk's own arrival.
func (c *command) run() {
	if c.readDone != nil {
		if c.readChunk() {
			return // re-armed for the next chunk
		}
	} else {
		mem := c.e.mem
		var err error
		for off, i := 0, 0; i < len(c.segs) && err == nil; i++ {
			s := c.segs[i]
			err = mem.WritePhys(s.PA, c.data[off:off+s.Len])
			off += s.Len
		}
		packet.PutBuf(c.frame)
		c.writeDone(err)
	}
	c.release()
}

// readChunk delivers the next chunk of a read and reports whether the
// command re-armed itself for another.
func (c *command) readChunk() bool {
	m := min(c.chunk, c.n-c.off)
	out, err := c.next(m)
	if err != nil {
		c.readDone(nil, err)
		return false
	}
	c.off += m
	c.readDone(out, nil)
	if c.off == c.n {
		return false
	}
	c.e.eng.ScheduleAt(c.due(), c.commit)
	return true
}

// due is when the next chunk has arrived: the command's completion time
// minus the streaming time of the bytes still behind that chunk (none
// behind the last, which falls on the completion itself).
func (c *command) due() sim.Time {
	rest := c.n - c.off
	behind := rest - min(c.chunk, rest)
	return c.finish.Add(-sim.BytesAt(behind, c.e.cfg.BandwidthGbps))
}

// next returns the next m bytes of the read, as c.mode says.
func (c *command) next(m int) ([]byte, error) {
	mem := c.e.mem
	if s := c.segs[c.seg]; c.mode == readStreamed && s.Len-c.segOff >= m {
		out, err := mem.ViewPhys(s.PA+hostmem.Addr(c.segOff), m)
		c.advance(m)
		return out, err
	}
	var out []byte
	if c.mode == readOwned {
		out = make([]byte, m)
	} else {
		if cap(c.stage) < m {
			c.stage = make([]byte, m)
		}
		out = c.stage[:m]
	}
	// A chunk may straddle the physical segments of a page-crossing read.
	for got := 0; got < m; {
		s := c.segs[c.seg]
		k := min(s.Len-c.segOff, m-got)
		if err := mem.ReadPhysInto(s.PA+hostmem.Addr(c.segOff), out[got:got+k]); err != nil {
			return nil, err
		}
		got += k
		c.advance(k)
	}
	return out, nil
}

// advance moves the read position k bytes on, inside the current segment.
func (c *command) advance(k int) {
	if c.segOff += k; c.segOff == c.segs[c.seg].Len {
		c.seg, c.segOff = c.seg+1, 0
	}
}

// ReadHost DMA-reads n bytes at virtual address va and delivers them to
// done when the transfer completes. The TLB splits page-crossing commands;
// each resulting segment pays the per-command overhead. The result is a
// fresh buffer that done owns.
func (e *Engine) ReadHost(va hostmem.Addr, n int, done func([]byte, error)) {
	e.readHost(va, n, n, done, readOwned)
}

// ReadHostBorrowed is ReadHost for a caller that has finished with the
// bytes when done returns — a kernel, which parses or forwards the object
// inside its completion. The result is the command's staging buffer and
// is overwritten by a later command: done must not retain it.
func (e *Engine) ReadHostBorrowed(va hostmem.Addr, n int, done func([]byte, error)) {
	e.readHost(va, n, n, done, readBorrowed)
}

// ReadHostStream is the cut-through form of ReadHostBorrowed, for a
// consumer that forwards the bytes as they cross the link — the NIC's own
// data path. It is the same command: one descriptor, the same
// reservation of the host-to-card stream, the same Stats. Only the
// delivery differs: done is called once per chunk bytes (the last call
// carries the remainder), in address order, each call at the instant its
// bytes have arrived — the command's completion time minus the streaming
// time of the bytes still behind it — so the last call falls exactly
// where ReadHostBorrowed's single one does. A chunk is valid only inside
// its callback and read-only: it is the staging buffer or, more often,
// the host memory it was read from. An error ends the stream: done
// receives it once, with nil data, and is not called again.
func (e *Engine) ReadHostStream(va hostmem.Addr, n, chunk int, done func([]byte, error)) {
	if chunk <= 0 {
		panic("pcie: ReadHostStream: chunk must be positive")
	}
	e.readHost(va, n, chunk, done, readStreamed)
}

func (e *Engine) readHost(va hostmem.Addr, n, chunk int, done func([]byte, error), mode readMode) {
	if e.offline {
		e.eng.Schedule(e.cfg.ReadLatency, func() { done(nil, ErrOffline) })
		return
	}
	c := e.newCommand(&e.freeReads)
	segs, err := e.tlb.Split(c.segs[:0], va, n)
	if err != nil {
		c.release()
		e.eng.Schedule(e.cfg.ReadLatency, func() { done(nil, err) })
		return
	}
	c.segs, c.n, c.chunk, c.mode, c.readDone = segs, n, chunk, mode, done
	c.off, c.seg, c.segOff = 0, 0, 0
	e.st.ReadCommands++
	e.st.SplitSegments += uint64(len(segs) - 1)
	e.st.ReadBytes += uint64(n)
	// Data lands after the request round trip plus streaming time.
	c.finish = e.reserve(c, e.h2c.link, e.cfg.ReadLatency)
	if e.tb != nil {
		now := e.eng.Now()
		e.tb.Complete(e.pid, traceTidH2C, "dma", "DMA_READ", now, c.finish.Sub(now), fmt.Sprintf("va=%#x n=%d segs=%d", uint64(va), n, len(segs)))
	}
	e.h2c.book(e.eng, c.due(), c)
}

// WriteHost DMA-writes data to virtual address va and calls done once the
// write is globally visible in host memory (when a polling CPU can see
// it). Posted writes complete without a round trip. data is copied into
// the command's staging buffer before WriteHost returns, for a caller
// that refills its buffer at once — a kernel writing its output.
func (e *Engine) WriteHost(va hostmem.Addr, data []byte, done func(error)) {
	e.writeHost(va, data, nil, done)
}

// WriteHostFrame is WriteHost for a payload that lies in a received frame
// the caller hands over with it: data aliases frame, and nothing is
// copied. The commit writes data straight out of the frame and returns
// the frame to packet's free list; a write that fails before it moves a
// byte (device offline, unmapped address) returns it when done is
// called. A nil frame makes it WriteHost.
func (e *Engine) WriteHostFrame(va hostmem.Addr, data, frame []byte, done func(error)) {
	e.writeHost(va, data, frame, done)
}

func (e *Engine) writeHost(va hostmem.Addr, data, frame []byte, done func(error)) {
	if e.offline {
		e.writeFailed(frame, done, ErrOffline)
		return
	}
	n := len(data)
	if n == 0 {
		e.writeFailed(frame, done, nil)
		return
	}
	c := e.newCommand(&e.freeWrites)
	segs, err := e.tlb.Split(c.segs[:0], va, n)
	if err != nil {
		c.release()
		e.writeFailed(frame, done, err)
		return
	}
	c.segs, c.writeDone = segs, done
	if frame == nil {
		c.stage = append(c.stage[:0], data...)
		data = c.stage
	}
	c.data, c.frame = data, frame
	e.st.WriteCommands++
	e.st.SplitSegments += uint64(len(segs) - 1)
	e.st.WriteBytes += uint64(n)
	at := e.reserve(c, e.c2h.link, e.cfg.WriteLatency)
	if e.tb != nil {
		now := e.eng.Now()
		e.tb.Complete(e.pid, traceTidC2H, "dma", "DMA_WRITE", now, at.Sub(now), fmt.Sprintf("va=%#x n=%d segs=%d", uint64(va), n, len(segs)))
	}
	e.c2h.book(e.eng, at, c)
}

// writeFailed completes a write that moves no bytes after the posting
// latency, and returns its frame, if it has one, then.
func (e *Engine) writeFailed(frame []byte, done func(error), err error) {
	e.eng.Schedule(e.cfg.WriteLatency, func() {
		packet.PutBuf(frame)
		done(err)
	})
}

// MMIORead models one register read from the host; fn produces the value
// on the device side and done receives it after the round trip.
func (e *Engine) MMIORead(fn func() uint64, done func(uint64)) {
	end := e.mmio.Reserve(e.cfg.MMIOReadLatency / 4)
	e.eng.ScheduleAt(end.Add(e.cfg.MMIOReadLatency), func() { done(fn()) })
}

// Utilisation returns h2c and c2h link utilisation since time zero.
func (e *Engine) Utilisation() (h2c, c2h float64) {
	return e.h2c.link.Utilisation(), e.c2h.link.Utilisation()
}

// String describes the link.
func (e *Engine) String() string {
	return fmt.Sprintf("PCIe Gen%d x%d (%.0f Gbit/s effective per direction)", e.cfg.Gen, e.cfg.Lanes, e.cfg.BandwidthGbps)
}
