// Package traversal implements the StRoM traversal kernel (§6.2): remote
// data-structure traversal by pointer chasing on the NIC. Its parameters
// are exactly those of the paper's Table 2, which makes it general enough
// to traverse linked lists, hash tables, trees, skip lists and similar
// structures: each hop costs one PCIe round trip (~1.5 µs) instead of a
// network round trip (~5 µs).
//
// Data-structure elements are at most 64 B, keys are 8 B, and fields are
// 4 B aligned — the constraints stated in the paper.
package traversal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"strom/internal/core"
	"strom/internal/fpga"
	"strom/internal/mr"
)

// ElementSize is the fixed size of one data-structure element read per
// hop.
const ElementSize = 64

// slots is the number of 4 B positions in an element.
const slots = ElementSize / 4

// Predicate is the comparison applied between the lookup key and the
// keys found in an element (Table 2's predicateOpCode).
type Predicate uint8

// Predicate op-codes.
const (
	Equal Predicate = iota
	LessThan
	GreaterThan
	NotEqual
)

// Eval applies the predicate: elemKey <op> lookupKey.
func (p Predicate) Eval(elemKey, lookupKey uint64) bool {
	switch p {
	case Equal:
		return elemKey == lookupKey
	case LessThan:
		return elemKey < lookupKey
	case GreaterThan:
		return elemKey > lookupKey
	case NotEqual:
		return elemKey != lookupKey
	}
	return false
}

// String returns the predicate mnemonic.
func (p Predicate) String() string {
	switch p {
	case Equal:
		return "EQUAL"
	case LessThan:
		return "LESS_THAN"
	case GreaterThan:
		return "GREATER_THAN"
	case NotEqual:
		return "NOT_EQUAL"
	}
	return fmt.Sprintf("PREDICATE(%d)", uint8(p))
}

// Status codes written to the response status word.
const (
	StatusFound    = 1
	StatusNotFound = 2
	StatusError    = 3
	// StatusFault reports a traversal whose pointer chase left registered
	// memory: the NIC's DMA sandbox rejected the hop (mr.ErrAccess) and
	// the kernel terminated deterministically instead of faulting.
	StatusFault = 4
)

// Params is the Table 2 parameter set, plus the response address the
// value is written back to and a hop bound.
type Params struct {
	// RemoteAddress is the address of the initial element.
	RemoteAddress uint64
	// ValueSize is the size of the final value to be read.
	ValueSize uint32
	// Key is the lookup key.
	Key uint64
	// KeyMask marks which 4 B positions of the element hold keys (bit i
	// set: an 8 B key starts at byte offset 4*i).
	KeyMask uint16
	// PredicateOp compares element keys against Key.
	PredicateOp Predicate
	// ValuePtrPosition is the 4 B position of the 8 B value pointer,
	// absolute within the element or relative to the matching key.
	ValuePtrPosition uint8
	// IsRelativePosition selects relative (to the matched key) or
	// absolute interpretation of ValuePtrPosition.
	IsRelativePosition bool
	// NextElementPtrPosition is the 4 B position of the pointer to the
	// next element, followed when no key matches.
	NextElementPtrPosition uint8
	// NextElementPtrValid indicates the element has a next pointer at
	// all; when false, an unmatched element terminates the traversal.
	NextElementPtrValid bool
	// ResponseAddress is the requester-side virtual address the value is
	// written to; the 8 B status word lands at ResponseAddress+ValueSize.
	ResponseAddress uint64
	// MaxHops bounds the traversal (0 means the kernel default).
	MaxHops uint16
}

// Encode serializes the parameters for postRpc.
func (p Params) Encode() []byte {
	out := make([]byte, 40)
	p.put(out)
	return out
}

// put encodes p into the 40 bytes of out.
func (p Params) put(out []byte) {
	binary.LittleEndian.PutUint64(out[0:8], p.RemoteAddress)
	binary.LittleEndian.PutUint32(out[8:12], p.ValueSize)
	binary.LittleEndian.PutUint64(out[12:20], p.Key)
	binary.LittleEndian.PutUint16(out[20:22], p.KeyMask)
	out[22] = uint8(p.PredicateOp)
	out[23] = p.ValuePtrPosition
	if p.IsRelativePosition {
		out[24] = 1
	}
	out[25] = p.NextElementPtrPosition
	if p.NextElementPtrValid {
		out[26] = 1
	}
	binary.LittleEndian.PutUint64(out[27:35], p.ResponseAddress)
	binary.LittleEndian.PutUint16(out[35:37], p.MaxHops)
}

// DecodeParams parses an encoded parameter block.
func DecodeParams(data []byte) (Params, error) {
	if len(data) < 40 {
		return Params{}, errors.New("traversal: short parameter block")
	}
	var p Params
	p.RemoteAddress = binary.LittleEndian.Uint64(data[0:8])
	p.ValueSize = binary.LittleEndian.Uint32(data[8:12])
	p.Key = binary.LittleEndian.Uint64(data[12:20])
	p.KeyMask = binary.LittleEndian.Uint16(data[20:22])
	p.PredicateOp = Predicate(data[22])
	p.ValuePtrPosition = data[23]
	p.IsRelativePosition = data[24] != 0
	p.NextElementPtrPosition = data[25]
	p.NextElementPtrValid = data[26] != 0
	p.ResponseAddress = binary.LittleEndian.Uint64(data[27:35])
	p.MaxHops = binary.LittleEndian.Uint16(data[35:37])
	return p, nil
}

// Stats counts kernel activity.
type Stats struct {
	Invocations uint64
	Hops        uint64
	Found       uint64
	NotFound    uint64
	Errors      uint64
	MRFaults    uint64 // hops rejected by the NIC's memory-region sandbox
}

// Kernel is the traversal kernel.
type Kernel struct {
	defaultMaxHops int
	stats          Stats
	free           []*lookup // recycled lookup records (see lookup)
}

// New creates a traversal kernel. maxHops bounds runaway traversals
// (default 1024 when 0).
func New(maxHops int) *Kernel {
	if maxHops <= 0 {
		maxHops = 1024
	}
	return &Kernel{defaultMaxHops: maxHops}
}

// Name implements core.Kernel.
func (k *Kernel) Name() string { return "traversal" }

// Stats returns a snapshot of the counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Resources implements core.Kernel: the traversal kernel is small — a
// comparator array, two address generators and control FSM.
func (k *Kernel) Resources() fpga.Resources {
	return fpga.Resources{LUTs: 6200, FFs: 8400, BRAMs: 6}
}

// Stream implements core.Kernel; the traversal kernel takes no payload.
func (k *Kernel) Stream(ctx *core.Context, qpn uint32, data []byte, last bool) {}

// Invoke implements core.Kernel: fetch the root element, match keys,
// follow next pointers, finally read the value and write it (plus a
// status word) back to the requester.
func (k *Kernel) Invoke(ctx *core.Context, qpn uint32, raw []byte) {
	k.stats.Invocations++
	p, err := DecodeParams(raw)
	if err != nil {
		k.stats.Errors++
		ctx.Tracef("bad params: %v", err)
		return
	}
	maxHops := int(p.MaxHops)
	if maxHops == 0 {
		maxHops = k.defaultMaxHops
	}
	var l *lookup
	if n := len(k.free); n > 0 {
		l, k.free = k.free[n-1], k.free[:n-1]
	} else {
		l = &lookup{k: k}
		l.onElem, l.onValue = l.elem, l.value
	}
	l.ctx, l.qpn, l.p, l.hopsLeft = ctx, qpn, p, maxHops
	l.step(p.RemoteAddress)
}

// lookup is one traversal in flight, its two DMA completions bound once.
// It waits on one DMA read at a time; finish returns it to the kernel's
// free list, and one whose completion a crash dropped is left to the GC.
type lookup struct {
	k        *Kernel
	ctx      *core.Context
	qpn      uint32
	p        Params
	hopsLeft int
	onElem   func([]byte, error)
	onValue  func([]byte, error)
}

// step performs one hop: one PCIe read of the 64 B element.
func (l *lookup) step(addr uint64) {
	if addr == 0 || l.hopsLeft <= 0 {
		l.finish(nil, StatusNotFound)
		return
	}
	l.hopsLeft--
	l.k.stats.Hops++
	l.ctx.State(l.qpn, "FETCH_ELEMENT")
	l.ctx.DMARead(addr, ElementSize, l.onElem)
}

// elem matches the keys of a fetched element, then reads the value or
// follows the next pointer.
func (l *lookup) elem(elem []byte, err error) {
	k, p := l.k, &l.p
	if err != nil {
		l.finish(nil, k.classify(l.ctx, err))
		return
	}
	// Compare all masked key positions concurrently (the unrolled loop of
	// Listing 4).
	matchIdx := -1
	for i := 0; i < slots-1; i++ {
		if p.KeyMask&(1<<i) == 0 {
			continue
		}
		elemKey := binary.LittleEndian.Uint64(elem[4*i : 4*i+8])
		if p.PredicateOp.Eval(elemKey, p.Key) {
			matchIdx = i
			break
		}
	}
	if matchIdx >= 0 {
		vpos := int(p.ValuePtrPosition)
		if p.IsRelativePosition {
			vpos += matchIdx
		}
		if vpos < 0 || vpos >= slots-1 {
			k.stats.Errors++
			l.finish(nil, StatusError)
			return
		}
		valuePtr := binary.LittleEndian.Uint64(elem[4*vpos : 4*vpos+8])
		l.ctx.State(l.qpn, "READ_VALUE")
		l.ctx.DMARead(valuePtr, int(p.ValueSize), l.onValue)
		return
	}
	if !p.NextElementPtrValid {
		l.finish(nil, StatusNotFound)
		return
	}
	npos := int(p.NextElementPtrPosition)
	if npos < 0 || npos >= slots-1 {
		k.stats.Errors++
		l.finish(nil, StatusError)
		return
	}
	l.step(binary.LittleEndian.Uint64(elem[4*npos : 4*npos+8]))
}

// value completes the value read.
func (l *lookup) value(value []byte, err error) {
	var status uint64 = StatusFound
	if err != nil {
		value, status = nil, l.k.classify(l.ctx, err)
	}
	l.finish(value, status)
}

// classify maps a hop's DMA error to a response status: sandbox
// rejections (the chase left registered memory) report StatusFault, every
// other failure StatusError.
func (k *Kernel) classify(ctx *core.Context, err error) uint64 {
	if errors.Is(err, mr.ErrAccess) {
		k.stats.MRFaults++
		ctx.Tracef("hop left registered memory: %v", err)
		return StatusFault
	}
	k.stats.Errors++
	return StatusError
}

// finish transmits the value (if any) followed by the status word and
// recycles the lookup.
func (l *lookup) finish(value []byte, status uint64) {
	switch status {
	case StatusFound:
		l.k.stats.Found++
	case StatusNotFound:
		l.k.stats.NotFound++
	}
	l.ctx.State(l.qpn, "RESPOND")
	l.ctx.Respond(l.qpn, l.p.ResponseAddress, value, int(l.p.ValueSize), status)
	l.k.free = append(l.k.free, l)
}
