// Package shuffle implements the StRoM shuffling kernel (§6.4): incoming
// RDMA streams of 8 B tuples are partitioned on-the-fly by a radix hash
// (the N least significant bits) and written to per-partition locations
// in host memory. The kernel keeps one 16-value (128 B) on-chip buffer
// per partition — the buffering required to sustain line rate over PCIe —
// for up to 1024 partitions, exactly the paper's configuration.
//
// The kernel is parametrised through an RDMA RPC carrying the histogram:
// the host-memory address of a partition descriptor table (base address
// of each partition region) that the kernel DMA-reads at invocation.
package shuffle

import (
	"encoding/binary"
	"errors"
	"fmt"

	"strom/internal/core"
	"strom/internal/fpga"
)

// MaxPartitions is the kernel's on-chip buffer budget (§6.4).
const MaxPartitions = 1024

// BufferValues is the per-partition on-chip buffer capacity in 8 B
// values (16 values = 128 B).
const BufferValues = 16

// TupleSize is the fixed tuple width.
const TupleSize = 8

// DescriptorSize is one entry of the partition table in host memory:
// the 8 B base address of the partition region.
const DescriptorSize = 8

// Params configures a shuffle session.
type Params struct {
	// TableAddress points at the partition descriptor table in the
	// receiving host's memory (NumPartitions * DescriptorSize bytes).
	TableAddress uint64
	// NumPartitions must be a power of two, at most MaxPartitions.
	NumPartitions uint32
	// CompletionAddress receives the 8 B tuple count when the stream
	// ends and all partitions are flushed.
	CompletionAddress uint64
	// TotalTuples, when non-zero, lets a session span several RDMA RPC
	// WRITE messages: the session ends once this many tuples arrived.
	// When zero, the session ends with the first message's last segment.
	TotalTuples uint64
}

// Encode serializes the parameter block.
func (p Params) Encode() []byte {
	out := make([]byte, 28)
	binary.LittleEndian.PutUint64(out[0:8], p.TableAddress)
	binary.LittleEndian.PutUint32(out[8:12], p.NumPartitions)
	binary.LittleEndian.PutUint64(out[12:20], p.CompletionAddress)
	binary.LittleEndian.PutUint64(out[20:28], p.TotalTuples)
	return out
}

// DecodeParams parses a parameter block.
func DecodeParams(data []byte) (Params, error) {
	if len(data) < 28 {
		return Params{}, errors.New("shuffle: short parameter block")
	}
	return Params{
		TableAddress:      binary.LittleEndian.Uint64(data[0:8]),
		NumPartitions:     binary.LittleEndian.Uint32(data[8:12]),
		CompletionAddress: binary.LittleEndian.Uint64(data[12:20]),
		TotalTuples:       binary.LittleEndian.Uint64(data[20:28]),
	}, nil
}

// Partition returns the radix partition of a tuple value for a
// power-of-two partition count: the N least significant bits (§6.4).
func Partition(v uint64, numPartitions uint32) uint32 {
	return uint32(v) & (numPartitions - 1)
}

// Stats counts kernel activity.
type Stats struct {
	Invocations uint64
	Tuples      uint64
	Flushes     uint64
	Errors      uint64
}

// session is the state of one parametrised shuffle, its two DMA
// completions bound once (see Invoke).
type session struct {
	k       *Kernel
	ctx     *core.Context
	params  Params
	bases   []uint64 // partition base addresses from the descriptor table
	offsets []uint64 // running write offset per partition
	bufs    [][]byte // on-chip buffers
	tuples  uint64
	pending int                 // outstanding DMA writes
	onFlush func(error)         // completion of every partition flush
	onTable func([]byte, error) // completion of the descriptor table read
	ended   bool                // session complete (all tuples seen)
	ready   bool                // descriptor table loaded
	backlog []segment
	lastQPN uint32
}

// segment is a buffered stream chunk that raced ahead of the descriptor
// table load.
type segment struct {
	data []byte
	last bool
}

// Kernel is the shuffling kernel.
type Kernel struct {
	sess  *session
	stats Stats
	word  [8]byte // completion count staging (DMAWrite copies it)
}

// New creates a shuffle kernel.
func New() *Kernel { return &Kernel{} }

// Name implements core.Kernel.
func (k *Kernel) Name() string { return "shuffle" }

// Stats returns a snapshot of the counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Resources implements core.Kernel: the partition buffers dominate
// (1024 x 128 B = 128 KB of on-chip memory, ~32 BRAMs).
func (k *Kernel) Resources() fpga.Resources {
	return fpga.Resources{LUTs: 9800, FFs: 12500, BRAMs: 38}
}

// Invoke implements core.Kernel: load the histogram (partition
// descriptor table) and reset the session.
func (k *Kernel) Invoke(ctx *core.Context, qpn uint32, raw []byte) {
	k.stats.Invocations++
	p, err := DecodeParams(raw)
	if err != nil {
		k.stats.Errors++
		ctx.Tracef("bad params: %v", err)
		return
	}
	if p.NumPartitions == 0 || p.NumPartitions > MaxPartitions || p.NumPartitions&(p.NumPartitions-1) != 0 {
		k.stats.Errors++
		ctx.Tracef("bad partition count %d", p.NumPartitions)
		return
	}
	// A completed session has no DMA outstanding and takes no more input:
	// the next one takes over its record and, at the same partition count,
	// its on-chip buffers (fixed storage, refilled in place after every
	// flush). A session still in flight keeps its own.
	s := k.sess
	if s == nil || !s.done() {
		s = &session{k: k}
		s.onFlush, s.onTable = s.flushed, s.tableLoaded
	}
	s.ctx, s.params, s.tuples, s.ended, s.ready, s.lastQPN = ctx, p, 0, false, false, 0
	if len(s.bufs) == int(p.NumPartitions) {
		clear(s.offsets)
		for i := range s.bufs {
			s.bufs[i] = s.bufs[i][:0]
		}
	} else {
		const bufBytes = BufferValues * TupleSize
		store := make([]byte, int(p.NumPartitions)*bufBytes)
		s.bases = make([]uint64, p.NumPartitions)
		s.offsets = make([]uint64, p.NumPartitions)
		s.bufs = make([][]byte, p.NumPartitions)
		for i := range s.bufs {
			s.bufs[i] = store[i*bufBytes : i*bufBytes : (i+1)*bufBytes]
		}
	}
	k.sess = s
	ctx.State(qpn, "LOAD_HISTOGRAM")
	ctx.DMARead(p.TableAddress, int(p.NumPartitions)*DescriptorSize, s.onTable)
}

// tableLoaded takes in the partition descriptor table and drains the
// segments that raced ahead of it.
func (s *session) tableLoaded(table []byte, err error) {
	k := s.k
	if err != nil {
		k.stats.Errors++
		s.ctx.Tracef("descriptor table read failed: %v", err)
		return
	}
	for i := range s.bases {
		s.bases[i] = binary.LittleEndian.Uint64(table[i*DescriptorSize:])
	}
	s.ready = true
	backlog := s.backlog
	s.backlog = nil
	for _, seg := range backlog {
		k.consume(s.ctx, s, seg.data, seg.last)
	}
}

// flushed completes one partition flush.
func (s *session) flushed(err error) {
	if err != nil {
		s.k.stats.Errors++
		s.ctx.Tracef("partition flush failed: %v", err)
	}
	s.pending--
	s.k.maybeComplete(s.ctx, s)
}

// Stream implements core.Kernel: partition each incoming 8 B value.
func (k *Kernel) Stream(ctx *core.Context, qpn uint32, data []byte, last bool) {
	s := k.sess
	if s == nil {
		k.stats.Errors++
		ctx.Tracef("stream before parameters")
		return
	}
	s.lastQPN = qpn
	if !s.ready {
		s.backlog = append(s.backlog, segment{data: append([]byte(nil), data...), last: last})
		return
	}
	k.consume(ctx, s, data, last)
}

func (k *Kernel) consume(ctx *core.Context, s *session, data []byte, last bool) {
	n := uint32(len(s.bases))
	for i := 0; i+TupleSize <= len(data); i += TupleSize {
		v := binary.LittleEndian.Uint64(data[i:])
		pid := Partition(v, n)
		s.bufs[pid] = append(s.bufs[pid], data[i:i+TupleSize]...)
		s.tuples++
		k.stats.Tuples++
		if len(s.bufs[pid]) >= BufferValues*TupleSize {
			k.flush(ctx, s, pid)
		}
	}
	sessionEnd := last
	if s.params.TotalTuples > 0 {
		sessionEnd = s.tuples >= s.params.TotalTuples
	}
	if sessionEnd {
		s.ended = true
		for pid := range s.bufs {
			if len(s.bufs[pid]) > 0 {
				k.flush(ctx, s, uint32(pid))
			}
		}
		k.maybeComplete(ctx, s)
	}
}

// flush writes one partition buffer to its host-memory region.
func (k *Kernel) flush(ctx *core.Context, s *session, pid uint32) {
	buf := s.bufs[pid]
	s.bufs[pid] = buf[:0] // DMAWrite copies buf before it returns
	dst := s.bases[pid] + s.offsets[pid]
	s.offsets[pid] += uint64(len(buf))
	s.pending++
	k.stats.Flushes++
	ctx.State(s.lastQPN, "FLUSH_PARTITION")
	ctx.DMAWrite(dst, buf, s.onFlush)
}

// maybeComplete posts the completion count once the stream ended and all
// partition flushes landed.
func (k *Kernel) maybeComplete(ctx *core.Context, s *session) {
	if !s.ended || s.pending != 0 || s.done() {
		return
	}
	s.params.CompletionAddress = markDone(s.params.CompletionAddress)
	ctx.State(s.lastQPN, "COMPLETE")
	binary.LittleEndian.PutUint64(k.word[:], s.tuples)
	ctx.DMAWrite(doneAddr(s.params.CompletionAddress), k.word[:], nil)
}

// The completion address doubles as the done flag; encode "already
// completed" by setting the low bit (addresses are 8 B aligned).
func markDone(a uint64) uint64 { return a | 1 }
func doneAddr(a uint64) uint64 { return a &^ 1 }
func (s *session) done() bool  { return s.params.CompletionAddress&1 == 1 }

// String describes the kernel configuration.
func (k *Kernel) String() string {
	return fmt.Sprintf("shuffle(maxPartitions=%d, buffer=%dx%dB)", MaxPartitions, BufferValues, TupleSize)
}
