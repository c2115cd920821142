package kvserve

import (
	"encoding/binary"
	"errors"
	"fmt"

	"strom/internal/cpu"
	"strom/internal/hostmem"
)

// Large values spill out of the 48 B inline slot into fixed 128 B
// extents in a per-shard arena. The slot then carries a spill reference
// (arena offset + value length) instead of the value bytes, marked by
// FlagSpilled, and the extent itself is a self-verifying object in the
// consistency-kernel sense (§6.3): key and version are repeated in the
// extent header and a CRC64 over key|ver|value closes the frame, so a
// reader can detect any torn or stale combination of slot and extent
// without locks.
//
// Publish ordering. A spilled put writes the extent first, then the
// slot, on the same QP — same-QP PSN ordering is the fence, so the
// responder applies the extent before any reader can observe the slot
// pointing at it. The racing window that remains (slot read at version
// v, extent overwritten to v' before the kernel DMA-reads it) is
// exactly what the torn-read detection machinery catches.
const (
	// ExtentSize is the fixed arena stride: key (8) | ver (8) | vlen (4)
	// | pad (4) | value (up to 96, zero-padded) | crc64 (8) = 128 B.
	ExtentSize = 128
	// LargeValCap is the maximum spilled value length.
	LargeValCap = 96

	extKeyOff = 0
	extVerOff = 8
	extLenOff = 16
	extValOff = 24
)

// Additional slot flags for spilled values.
const (
	// FlagSpilled marks a slot whose value lives in an out-of-line
	// extent; the slot value field holds a spill reference instead.
	FlagSpilled = 1 << 1
)

// SpillRefLen is the slot-value payload of a spilled slot: arena offset
// (8) | value length (4) = 12 B (fits well inside ValCap).
const SpillRefLen = 12

// Errors for the spilled path.
var (
	// ErrTorn reports a read whose inconsistency survived the full retry
	// budget on every reachable replica — the caller must not use the
	// value. A detected-and-retried torn read never surfaces this.
	ErrTorn = errors.New("kvserve: torn read persisted past retry budget")
)

// Extent is the decoded form of one extent.
type Extent struct {
	Key  uint64
	Ver  uint64
	Val  []byte
	Torn bool // CRC mismatch: the image is not a published extent state
}

// AppendSpillRef appends the SpillRefLen-byte spill reference to dst.
func AppendSpillRef(dst []byte, off int, vlen int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(off))
	return binary.LittleEndian.AppendUint32(dst, uint32(vlen))
}

// DecodeSpillRef parses a spilled slot's value payload.
func DecodeSpillRef(b []byte) (off int, vlen int, ok bool) {
	if len(b) != SpillRefLen {
		return 0, 0, false
	}
	off = int(binary.LittleEndian.Uint64(b))
	vlen = int(binary.LittleEndian.Uint32(b[8:]))
	if off < 0 || off%ExtentSize != 0 || vlen <= ValCap || vlen > LargeValCap {
		return 0, 0, false
	}
	return off, vlen, true
}

// AppendExtent appends the ExtentSize-byte extent image to dst,
// CRC-stamped over the whole frame (key|ver|vlen|pad|value|crc — the
// trailing-8-byte convention the consistency kernel verifies NIC-side).
func AppendExtent(dst []byte, key, ver uint64, val []byte) ([]byte, error) {
	if len(val) > LargeValCap {
		return dst, fmt.Errorf("%w: %d > %d", ErrValueTooLong, len(val), LargeValCap)
	}
	dst, b := grow(dst, ExtentSize)
	binary.LittleEndian.PutUint64(b[extKeyOff:], key)
	binary.LittleEndian.PutUint64(b[extVerOff:], ver)
	binary.LittleEndian.PutUint32(b[extLenOff:], uint32(len(val)))
	copy(b[extValOff:], val)
	cpu.StampCRC64(b)
	return dst, nil
}

// DecodeExtent parses an extent image. A CRC mismatch or an impossible
// header sets Torn — the image must then be treated as unpublished
// state, never served. The value slice aliases b.
func DecodeExtent(b []byte) Extent {
	if len(b) != ExtentSize || !cpu.VerifyCRC64(b) {
		return Extent{Torn: true}
	}
	n := binary.LittleEndian.Uint32(b[extLenOff:])
	if n > LargeValCap {
		return Extent{Torn: true}
	}
	return Extent{
		Key: binary.LittleEndian.Uint64(b[extKeyOff:]),
		Ver: binary.LittleEndian.Uint64(b[extVerOff:]),
		Val: b[extValOff : extValOff+int(n)],
	}
}

// LargeValueFor is ValueFor's spilled sibling: a deterministic value of
// 25..96 bytes for (key, version), so audits and Get self-checks can
// recompute expected large values from headers alone. A distinct mix
// constant keeps it from ever colliding with ValueFor's stream.
func LargeValueFor(key, ver uint64) []byte { return appendLargeValue(nil, key, ver) }

// appendLargeValue appends LargeValueFor(key, ver) to dst.
func appendLargeValue(dst []byte, key, ver uint64) []byte {
	n := ValCap + 1 + int((key*0xD6E8FEB86659FD93^ver)%(LargeValCap-ValCap))
	x := key*0xBF58476D1CE4E5B9 + ver*0x94D049BB133111EB + 0x2545F4914F6CDD1D
	return appendMix(dst, n, x)
}

// ExtentsPerShard returns the arena capacity every shard allocates: one
// extent per slot plus headroom, so spill allocation can never fail
// before the slot table does.
func (l Layout) ExtentsPerShard() int { return l.SlotsPerShard() + 16 }

// ArenaBytes returns one shard arena's size in bytes.
func (l Layout) ArenaBytes() int { return l.ExtentsPerShard() * ExtentSize }

// ExtentAddr computes an extent's address inside an arena at base.
func (l Layout) ExtentAddr(base hostmem.Addr, off int) hostmem.Addr {
	return base + hostmem.Addr(off)
}
