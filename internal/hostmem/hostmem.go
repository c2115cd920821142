// Package hostmem simulates a host machine's DRAM as seen by the StRoM
// NIC and driver (§4.2, §4.3): applications allocate buffers out of 2 MB
// huge pages that the kernel driver pins, obtaining the physical addresses
// used to populate the NIC's TLB. Virtual address spaces are contiguous
// per allocation, but the backing physical pages are deliberately
// scattered, so DMA commands that cross page boundaries must be split —
// exactly the case the TLB handles in hardware.
package hostmem

import (
	"errors"
	"fmt"
)

// HugePageSize is the pinned page granularity (2 MB, §4.2).
const HugePageSize = 2 << 20

// HugePageBits is log2(HugePageSize).
const HugePageBits = 21

// Addr is a virtual or physical byte address in the simulated machine.
type Addr uint64

// PageNumber returns the huge-page number containing a.
func (a Addr) PageNumber() uint64 { return uint64(a) >> HugePageBits }

// PageOffset returns the offset of a within its huge page.
func (a Addr) PageOffset() uint64 { return uint64(a) & (HugePageSize - 1) }

// Errors returned by memory operations.
var (
	ErrOutOfRange = errors.New("hostmem: address out of range")
	ErrNotMapped  = errors.New("hostmem: virtual address not mapped")
	ErrExhausted  = errors.New("hostmem: physical memory exhausted")
	ErrBadLength  = errors.New("hostmem: bad length")
	ErrDoubleFree = errors.New("hostmem: buffer already freed")
	ErrWrap       = errors.New("hostmem: address range wraps the 64-bit space")
)

// Memory is one host's DRAM: a set of physical huge pages plus the
// virtual mappings created for pinned buffers.
type Memory struct {
	totalPages int
	pages      map[uint64][]byte // physical page number -> data; a buffer's last page may be short (Allocate)
	nextPPN    uint64
	stridePPN  uint64            // scatter step so physical pages are not contiguous
	vmap       map[uint64]uint64 // virtual page number -> physical page number
	nextVA     Addr
	watches    []*Watch
}

// A Watch is a standing interest in a virtual range: after every write
// that overlaps it — a CPU store through WriteVirt, a NIC DMA through
// WritePhys — or Free of one of its pages, the memory calls its function.
// The zero value is ready for Memory.Watch, and its owner may reuse it
// once Unwatch returns.
type Watch struct {
	segs []span // the physical segments the range maps to, one per huge page
	fn   func()
	idx  int // position in Memory.watches while registered
}

// span is the physical range [from, to).
type span struct{ from, to Addr }

// New creates a host memory with capacity for totalPages huge pages.
func New(totalPages int) *Memory {
	return &Memory{
		totalPages: totalPages,
		pages:      make(map[uint64][]byte),
		vmap:       make(map[uint64]uint64),
		nextVA:     Addr(HugePageSize), // keep VA 0 unmapped (null)
		nextPPN:    1,
		stridePPN:  7, // deliberately non-contiguous physical layout
	}
}

// Buffer is a pinned, virtually contiguous allocation.
type Buffer struct {
	mem   *Memory
	base  Addr
	size  int
	freed bool
}

// Allocate reserves size bytes of virtually contiguous, pinned memory in
// whole huge pages (the driver model: applications pass a region to the
// driver, which pins every page, §4.3). The simulator backs each page only
// with the bytes the buffer covers: the last page's tail past the
// buffer's end reads as zeros, and the first write or view there backs
// the whole page.
func (m *Memory) Allocate(size int) (*Buffer, error) {
	if size <= 0 {
		return nil, ErrBadLength
	}
	npages := pagesOf(size)
	if len(m.pages)+npages > m.totalPages {
		return nil, ErrExhausted
	}
	base := m.nextVA
	for i := 0; i < npages; i++ {
		vpn := uint64(base)>>HugePageBits + uint64(i)
		ppn := m.nextPPN
		m.nextPPN += m.stridePPN
		m.pages[ppn] = make([]byte, min(size-i*HugePageSize, HugePageSize))
		m.vmap[vpn] = ppn
	}
	m.nextVA += Addr(npages * HugePageSize)
	return &Buffer{mem: m, base: base, size: size}, nil
}

// pagesOf returns the number of huge pages size bytes span, for size > 0;
// it does not overflow for any such size.
func pagesOf(size int) int { return (size-1)/HugePageSize + 1 }

// back makes the page at ppn whole, keeping its bytes, and returns it.
func (m *Memory) back(ppn uint64, page []byte) []byte {
	whole := make([]byte, HugePageSize)
	copy(whole, page)
	m.pages[ppn] = whole
	return whole
}

// Free releases the buffer's pages.
func (b *Buffer) Free() error {
	if b.freed {
		return ErrDoubleFree
	}
	npages := pagesOf(b.size)
	for i := 0; i < npages; i++ {
		vpn := uint64(b.base)>>HugePageBits + uint64(i)
		ppn, ok := b.mem.vmap[vpn]
		if !ok {
			return ErrNotMapped
		}
		delete(b.mem.vmap, vpn)
		delete(b.mem.pages, ppn)
		if len(b.mem.watches) > 0 {
			b.mem.written(Addr(ppn<<HugePageBits), Addr((ppn+1)<<HugePageBits))
		}
	}
	b.freed = true
	return nil
}

// Base returns the buffer's virtual base address.
func (b *Buffer) Base() Addr { return b.base }

// Size returns the buffer's length in bytes.
func (b *Buffer) Size() int { return b.size }

// Contains reports whether [va, va+n) lies inside the buffer. Negative
// lengths and ranges that wrap the 64-bit space are never contained.
func (b *Buffer) Contains(va Addr, n int) bool {
	if n < 0 || uint64(va)+uint64(n) < uint64(va) {
		return false
	}
	return va >= b.base && uint64(va)+uint64(n) <= uint64(b.base)+uint64(b.size)
}

// PhysicalPages returns the physical addresses of the buffer's pages in
// virtual order — what the driver hands to the NIC to populate the TLB.
func (b *Buffer) PhysicalPages() ([]Addr, error) {
	npages := pagesOf(b.size)
	pas := make([]Addr, 0, npages)
	for i := 0; i < npages; i++ {
		vpn := uint64(b.base)>>HugePageBits + uint64(i)
		ppn, ok := b.mem.vmap[vpn]
		if !ok {
			return nil, ErrNotMapped
		}
		pas = append(pas, Addr(ppn<<HugePageBits))
	}
	return pas, nil
}

// Translate maps a virtual address to its physical address (page walk —
// the software-side equivalent of the NIC TLB lookup).
func (m *Memory) Translate(va Addr) (Addr, error) {
	ppn, ok := m.vmap[va.PageNumber()]
	if !ok {
		return 0, ErrNotMapped
	}
	return Addr(ppn<<HugePageBits | va.PageOffset()), nil
}

// ReadPhysInto fills dst from physical address pa, for callers assembling
// several segments into one buffer.
func (m *Memory) ReadPhysInto(pa Addr, dst []byte) error {
	return m.accessPhys(pa, dst, false)
}

// ViewPhys returns the n bytes at physical address pa as a slice of host
// memory itself, not a copy, for a reader that has finished with them
// before anything else can run (the DMA engine handing a chunk to the TX
// pipeline, which copies it into a frame). The range must lie inside one
// huge page. The caller must not write through the slice (no Watch would
// hear it) nor keep it.
func (m *Memory) ViewPhys(pa Addr, n int) ([]byte, error) {
	page, ok := m.pages[pa.PageNumber()]
	if !ok {
		return nil, fmt.Errorf("%w: PA %#x", ErrOutOfRange, uint64(pa))
	}
	po := int(pa.PageOffset())
	if n < 0 || po+n > HugePageSize {
		return nil, ErrBadLength
	}
	if po+n > len(page) {
		page = m.back(pa.PageNumber(), page)
	}
	return page[po : po+n : po+n], nil
}

// WritePhys copies data to physical address pa.
func (m *Memory) WritePhys(pa Addr, data []byte) error {
	return m.accessPhys(pa, data, true)
}

func (m *Memory) accessPhys(pa Addr, buf []byte, write bool) error {
	off := 0
	for off < len(buf) {
		page, ok := m.pages[pa.PageNumber()]
		if !ok {
			return fmt.Errorf("%w: PA %#x", ErrOutOfRange, uint64(pa))
		}
		po := int(pa.PageOffset())
		n := len(buf) - off
		if po+n > HugePageSize {
			n = HugePageSize - po
		}
		switch {
		case write:
			if po+n > len(page) {
				page = m.back(pa.PageNumber(), page)
			}
			copy(page[po:po+n], buf[off:off+n])
			if len(m.watches) > 0 {
				m.written(pa, pa+Addr(n))
			}
		case po+n <= len(page):
			copy(buf[off:off+n], page[po:po+n])
		default: // the read reaches the page's unbacked tail
			k := 0
			if po < len(page) {
				k = copy(buf[off:off+n], page[po:])
			}
			clear(buf[off+k : off+n])
		}
		off += n
		pa += Addr(n)
	}
	return nil
}

// ReadVirt copies n bytes starting at virtual address va (a CPU access:
// translation happens per page).
func (m *Memory) ReadVirt(va Addr, n int) ([]byte, error) {
	if n < 0 {
		return nil, ErrBadLength
	}
	out := make([]byte, n)
	if err := m.ReadVirtInto(va, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadVirtInto fills dst from virtual address va: ReadVirt without the
// allocation, for callers that read the same range repeatedly (a poll
// loop). On an error dst may be partly filled.
func (m *Memory) ReadVirtInto(va Addr, dst []byte) error {
	n := len(dst)
	if uint64(va)+uint64(n) < uint64(va) {
		return fmt.Errorf("%w: VA %#x + %d", ErrWrap, uint64(va), n)
	}
	off := 0
	for off < n {
		pa, err := m.Translate(va)
		if err != nil {
			return err
		}
		chunk := n - off
		if int(va.PageOffset())+chunk > HugePageSize {
			chunk = HugePageSize - int(va.PageOffset())
		}
		if err := m.accessPhys(pa, dst[off:off+chunk], false); err != nil {
			return err
		}
		off += chunk
		va += Addr(chunk)
	}
	return nil
}

// WriteVirt copies data to virtual address va.
func (m *Memory) WriteVirt(va Addr, data []byte) error {
	if uint64(va)+uint64(len(data)) < uint64(va) {
		return fmt.Errorf("%w: VA %#x + %d", ErrWrap, uint64(va), len(data))
	}
	off := 0
	for off < len(data) {
		pa, err := m.Translate(va)
		if err != nil {
			return err
		}
		chunk := len(data) - off
		if int(va.PageOffset())+chunk > HugePageSize {
			chunk = HugePageSize - int(va.PageOffset())
		}
		if err := m.accessPhys(pa, data[off:off+chunk], true); err != nil {
			return err
		}
		off += chunk
		va += Addr(chunk)
	}
	return nil
}

// Watch registers w to call fn after each change to [va, va+n) (see
// Watch). The range is translated now and held as the physical segments
// it maps to, so it may cross huge pages. fn runs inside the write, so it
// must not touch the memory's watches.
func (m *Memory) Watch(w *Watch, va Addr, n int, fn func()) error {
	if n < 0 {
		return ErrBadLength
	}
	if uint64(va)+uint64(n) < uint64(va) {
		return fmt.Errorf("%w: VA %#x + %d", ErrWrap, uint64(va), n)
	}
	w.segs = w.segs[:0]
	for off := 0; off < n; {
		pa, err := m.Translate(va)
		if err != nil {
			return err
		}
		chunk := min(n-off, HugePageSize-int(va.PageOffset()))
		w.segs = append(w.segs, span{pa, pa + Addr(chunk)})
		off += chunk
		va += Addr(chunk)
	}
	w.fn, w.idx = fn, len(m.watches)
	m.watches = append(m.watches, w)
	return nil
}

// Unwatch removes w; its function is not called again. Unwatching a watch
// that is not registered does nothing.
func (m *Memory) Unwatch(w *Watch) {
	if w.fn == nil {
		return
	}
	last := len(m.watches) - 1
	m.watches[w.idx] = m.watches[last]
	m.watches[w.idx].idx = w.idx
	m.watches[last] = nil
	m.watches = m.watches[:last]
	w.fn = nil
}

// Watches reports the number of registered watches.
func (m *Memory) Watches() int { return len(m.watches) }

// written tells every watch that overlaps the physical range [from, to).
func (m *Memory) written(from, to Addr) {
	for _, w := range m.watches {
		for _, s := range w.segs {
			if from < s.to && s.from < to {
				w.fn()
				break
			}
		}
	}
}
