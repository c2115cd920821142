// Package tlb implements the NIC-side Translation Lookaside Buffer
// (§4.2): a table of up to 16,384 entries mapping 2 MB huge pages of a
// single contiguous virtual address space to 48-bit physical addresses.
// The TLB is populated once by the driver and does not take misses; DMA
// commands that cross a page boundary are split into multiple commands,
// none of which crosses a boundary.
package tlb

import (
	"errors"
	"fmt"

	"strom/internal/hostmem"
)

// DefaultEntries is the TLB capacity on the StRoM NIC: 16,384 entries ×
// 2 MB pages = 32 GB of addressable host memory (§4.2).
const DefaultEntries = 16384

// Errors returned by TLB operations.
var (
	ErrFull      = errors.New("tlb: capacity exceeded")
	ErrMiss      = errors.New("tlb: miss (page not populated)")
	ErrBadLength = errors.New("tlb: bad length")
	ErrWrap      = errors.New("tlb: address range wraps the 64-bit space")
)

// TLB is the on-NIC address translation table.
type TLB struct {
	capacity int
	entries  map[uint64]hostmem.Addr // virtual page number -> physical page base

	// Counters exposed through the Controller's status registers.
	Lookups uint64
	Splits  uint64
	Misses  uint64
}

// New creates a TLB with the given entry capacity (DefaultEntries if 0).
func New(capacity int) *TLB {
	if capacity <= 0 {
		capacity = DefaultEntries
	}
	return &TLB{capacity: capacity, entries: make(map[uint64]hostmem.Addr)}
}

// Populate installs a mapping for the huge page containing va. The driver
// calls this once per pinned page at registration time (§4.3).
func (t *TLB) Populate(va hostmem.Addr, pa hostmem.Addr) error {
	vpn := va.PageNumber()
	if _, ok := t.entries[vpn]; !ok && len(t.entries) >= t.capacity {
		return ErrFull
	}
	if pa.PageOffset() != 0 {
		return fmt.Errorf("tlb: physical base %#x not page aligned", uint64(pa))
	}
	t.entries[vpn] = pa
	return nil
}

// Lookup translates a single virtual address; the access must not be used
// across a page boundary (use Split for ranged commands).
func (t *TLB) Lookup(va hostmem.Addr) (hostmem.Addr, error) {
	t.Lookups++
	pa, ok := t.entries[va.PageNumber()]
	if !ok {
		t.Misses++
		return 0, fmt.Errorf("%w: VA %#x", ErrMiss, uint64(va))
	}
	return pa + hostmem.Addr(va.PageOffset()), nil
}

// Segment is one physically contiguous piece of a DMA command.
type Segment struct {
	PA  hostmem.Addr
	Len int
}

// Split translates the command [va, va+n) into physically contiguous
// segments, none crossing a 2 MB page boundary (§4.2), appended to dst
// (nil is fine; the DMA engine passes a command record's own storage so
// the one-segment common case allocates nothing). It returns a typed
// error for empty or negative lengths (ErrBadLength), for ranges whose
// VA+length wraps the 64-bit address space (ErrWrap — previously the
// per-page walk would silently march through the wrap), and for any
// unpopulated page in the range (ErrMiss).
func (t *TLB) Split(dst []Segment, va hostmem.Addr, n int) ([]Segment, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, n)
	}
	if uint64(va)+uint64(n) < uint64(va) {
		return nil, fmt.Errorf("%w: VA %#x + %d", ErrWrap, uint64(va), n)
	}
	segs := dst
	for n > 0 {
		pa, err := t.Lookup(va)
		if err != nil {
			return nil, err
		}
		chunk := n
		if room := hostmem.HugePageSize - int(va.PageOffset()); chunk > room {
			chunk = room
		}
		segs = append(segs, Segment{PA: pa, Len: chunk})
		va += hostmem.Addr(chunk)
		n -= chunk
	}
	if len(segs)-len(dst) > 1 {
		t.Splits++
	}
	return segs, nil
}

// Len reports the number of populated entries.
func (t *TLB) Len() int { return len(t.entries) }

// Capacity reports the maximum number of entries.
func (t *TLB) Capacity() int { return t.capacity }

// AddressableBytes reports how much host memory the populated capacity
// covers (32 GB at the default capacity).
func (t *TLB) AddressableBytes() uint64 {
	return uint64(t.capacity) * hostmem.HugePageSize
}
