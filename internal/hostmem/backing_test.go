package hostmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"strom/internal/raceflag"
)

// heapBytes returns the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocsBufferBacking pins what a buffer costs the host: the bytes it
// covers, not its whole last huge page. Reading that page's tail past the
// buffer's end allocates nothing and reads zeros; the first write there
// backs the page, once.
func TestAllocsBufferBacking(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race-runtime instrumentation allocates; allocation counts are only meaningful without -race")
	}
	const slack = 64 << 10 // map growth and the Buffer record
	m := New(16)
	var end *Buffer
	for _, size := range []int{1 << 20, 5 << 20} {
		var err error
		got := heapBytes(func() { end, err = m.Allocate(size) })
		if err != nil {
			t.Fatal(err)
		}
		if got > uint64(size+slack) {
			t.Errorf("Allocate(%d MiB) takes %d KiB of heap, want <= %d", size>>20, got>>10, (size+slack)>>10)
		}
	}

	// The 5 MiB buffer's last page holds 1 MiB; its other 1 MiB is tail.
	tail := end.Base() + Addr(end.Size())
	pas, err := end.PhysicalPages()
	if err != nil {
		t.Fatal(err)
	}
	tailPA := pas[len(pas)-1] + Addr(tail.PageOffset())
	dst := bytes.Repeat([]byte{0xEE}, 4096)
	if got := heapBytes(func() {
		for i := 0; i < 16; i++ {
			err = m.ReadVirtInto(tail-64, dst)
			if err == nil {
				err = m.ReadPhysInto(tailPA+100, dst)
			}
		}
	}); got != 0 || err != nil {
		t.Errorf("reading the tail allocates %d bytes (err %v), want 0", got, err)
	}
	if !bytes.Equal(dst, make([]byte, len(dst))) {
		t.Error("the unbacked tail does not read as zeros")
	}

	data := bytes.Repeat([]byte{0xAB}, 256)
	if got := heapBytes(func() { err = m.WriteVirt(tail-128, data) }); err != nil ||
		got < HugePageSize || got > HugePageSize+slack {
		t.Errorf("the first write into the tail allocates %d KiB (err %v), want one page (%d KiB)", got>>10, err, HugePageSize>>10)
	}
	if got := heapBytes(func() {
		err = m.WritePhys(tailPA+4096, data)
		if err == nil {
			_, err = m.ViewPhys(tailPA+8192, 64)
		}
	}); got != 0 || err != nil {
		t.Errorf("a backed tail allocates %d bytes again (err %v), want 0", got, err)
	}
	if got, _ := m.ReadVirt(tail-128, 256); !bytes.Equal(got, data) {
		t.Error("a write across the buffer's end did not keep its bytes")
	}
}

// FuzzMemoryMatchesFlatModel runs a random sequence of allocations, frees,
// CPU and DMA reads and writes, views and watches on two memories: one
// backing its pages as Allocate does, and a reference whose every page is
// backed whole as soon as it is allocated. Each op is aimed near a
// buffer's end, its last page's start or a page boundary, so ranges cross
// into the unbacked tail. Both memories must return the same bytes and
// errors and call the same watches in the same order.
func FuzzMemoryMatchesFlatModel(f *testing.F) {
	// An op is its code (mod 9) and then its operands: Allocate (0) a
	// 16-bit size in units of 97 bytes; Free (1) and Unwatch (8) an
	// index; an access (2-6) a buffer, an anchor (base, end, last page,
	// second page), a signed 16-bit delta and a 16-bit length; Watch (7)
	// an index, a target as for an access and a length in 64-byte units.
	f.Add([]byte{
		0, 0x2a, 0x00, // a 1 MiB buffer less 5 KiB
		7, 0, 0, 1, 0xff, 0xc0, 2, // watch the 128 bytes around its end
		2, 0, 1, 0xfe, 0x00, 0x01, 0x00, // CPU write just before the end
		3, 0, 1, 0xfe, 0x00, 0x04, 0x00, // CPU read across the end
		5, 0, 1, 0x00, 0x10, 0x10, 0x00, // DMA read inside the tail
		6, 0, 1, 0x00, 0x00, 0x00, 0x40, // view of the tail
		4, 0, 1, 0xff, 0xf0, 0x00, 0x20, // DMA write across the end
		2, 0, 1, 0xff, 0x00, 0x02, 0x00, // CPU write across the end
		8, 0, 1, 0,
	})
	f.Add([]byte{
		0, 0x60, 0x00, // two pages, the last 280 KiB long
		3, 0, 3, 0xff, 0x00, 0x02, 0x00, // CPU read across the page boundary
		5, 0, 1, 0x00, 0x00, 0x20, 0x00, // DMA read of the tail
		4, 0, 2, 0x00, 0x00, 0x10, 0x00, // DMA write at the last page's start
		2, 0, 1, 0x7f, 0xff, 0x1f, 0xff, // CPU write deep in the tail
		0, 0xff, 0xff, // four pages
		6, 1, 1, 0x00, 0x00, 0x01, 0x00, // view at its end
		1, 1, 1, 1, // double free
		0, 0x00, 0x00, // one byte
		7, 1, 2, 0, 0x00, 0x00, 1, // watch it
		2, 2, 0, 0x00, 0x00, 0x00, 0x80, // CPU write past it
	})
	f.Fuzz(func(t *testing.T, program []byte) {
		got, ref := New(6), New(6)
		var (
			bufs       [][2]*Buffer
			watches    [4][2]Watch
			registered [4]bool
			heard      [2][]int
			scratch    [2][]byte
			errs       [2]string
		)
		in := program
		next := func(n int) uint64 { // the next n bytes of the program, zero past its end
			var b [8]byte
			k := copy(b[8-n:], in)
			in = in[k:]
			return binary.BigEndian.Uint64(b[:])
		}
		// target picks a buffer and an address near one of its edges.
		target := func() (int, Addr, bool) {
			if len(bufs) == 0 {
				return 0, 0, false
			}
			i := int(next(1)) % len(bufs)
			b := bufs[i][0]
			anchor := []Addr{b.Base(), b.Base() + Addr(b.Size()),
				b.Base() + Addr((pagesOf(b.Size())-1)*HugePageSize), b.Base() + HugePageSize}[next(1)%4]
			return i, anchor + Addr(int16(next(2))), true
		}
		same := func(op string, a, b any) {
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("%s: %v, reference %v", op, a, b)
			}
		}
		for steps := 0; len(in) > 0 && steps < 64; steps++ {
			switch op := next(1) % 9; op {
			case 0: // Allocate a size that is rarely a page multiple
				size := int(next(2))*97 + 1
				a, errA := got.Allocate(size)
				b, errB := ref.Allocate(size)
				same("Allocate", errA, errB)
				if errA == nil {
					for ppn, page := range ref.pages {
						if len(page) < HugePageSize {
							ref.back(ppn, page)
						}
					}
					same("Allocate base", a.Base(), b.Base())
					bufs = append(bufs, [2]*Buffer{a, b})
				}
			case 1:
				if len(bufs) > 0 {
					i := int(next(1)) % len(bufs)
					same("Free", bufs[i][0].Free(), bufs[i][1].Free())
				}
			case 2, 3, 4, 5, 6: // accesses by VA (2, 3) and by PA (4, 5, 6)
				i, va, ok := target()
				if !ok {
					continue
				}
				n := int(next(2) % 8192)
				pa := va
				if op >= 4 {
					pas, err := bufs[i][0].PhysicalPages()
					if err != nil || len(pas) == 0 {
						continue
					}
					k := 0
					if base := bufs[i][0].Base(); va > base {
						k = min(int((va-base)>>HugePageBits), len(pas)-1)
					}
					pa = pas[k] + Addr(va.PageOffset())
				}
				for s, m := range []*Memory{got, ref} {
					scratch[s] = append(scratch[s][:0], make([]byte, n)...)
					var err error
					switch op {
					case 2:
						for j := range scratch[s] {
							scratch[s][j] = byte(steps + j)
						}
						err = m.WriteVirt(va, scratch[s])
					case 3:
						scratch[s], err = m.ReadVirt(va, n)
					case 4:
						for j := range scratch[s] {
							scratch[s][j] = byte(steps * j)
						}
						err = m.WritePhys(pa, scratch[s])
					case 5:
						for j := range scratch[s] {
							scratch[s][j] = 0xEE
						}
						err = m.ReadPhysInto(pa, scratch[s])
					case 6:
						var view []byte
						view, err = m.ViewPhys(pa, n)
						scratch[s] = append(scratch[s][:0], view...)
					}
					errs[s] = fmt.Sprint(err)
				}
				same(fmt.Sprintf("op %d at %#x+%d", op, uint64(pa), n), errs[0], errs[1])
				if !bytes.Equal(scratch[0], scratch[1]) {
					t.Fatalf("op %d at %#x+%d: the bytes differ from the reference", op, uint64(pa), n)
				}
			case 7:
				w := int(next(1)) % len(watches)
				_, va, ok := target()
				if !ok || registered[w] {
					continue
				}
				n := int(next(1)) * 64
				errA := got.Watch(&watches[w][0], va, n, func() { heard[0] = append(heard[0], w) })
				errB := ref.Watch(&watches[w][1], va, n, func() { heard[1] = append(heard[1], w) })
				same("Watch", errA, errB)
				registered[w] = errA == nil
			case 8:
				w := int(next(1)) % len(watches)
				got.Unwatch(&watches[w][0])
				ref.Unwatch(&watches[w][1])
				registered[w] = false
			}
			same("watches heard", heard[0], heard[1])
		}
		// Every page, tails included, reads the same on both memories.
		page := [2][]byte{make([]byte, HugePageSize), make([]byte, HugePageSize)}
		for ppn := range ref.pages {
			for s, m := range []*Memory{got, ref} {
				if err := m.ReadPhysInto(Addr(ppn<<HugePageBits), page[s]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(page[0], page[1]) {
				t.Fatalf("physical page %d differs from the reference", ppn)
			}
		}
	})
}
