package tlb

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"strom/internal/hostmem"
)

const page = hostmem.HugePageSize

func populated(t *testing.T, npages int) (*TLB, *hostmem.Memory, *hostmem.Buffer) {
	t.Helper()
	mem := hostmem.New(npages + 4)
	buf, err := mem.Allocate(npages * page)
	if err != nil {
		t.Fatal(err)
	}
	tl := New(0)
	pas, err := buf.PhysicalPages()
	if err != nil {
		t.Fatal(err)
	}
	for i, pa := range pas {
		va := buf.Base() + hostmem.Addr(i*page)
		if err := tl.Populate(va, pa); err != nil {
			t.Fatal(err)
		}
	}
	return tl, mem, buf
}

func TestDefaultCapacityIs32GB(t *testing.T) {
	tl := New(0)
	if tl.capacity != DefaultEntries {
		t.Errorf("capacity = %d", tl.capacity)
	}
	if addressable := uint64(tl.capacity) * hostmem.HugePageSize; addressable != 32<<30 {
		t.Errorf("addressable = %d", addressable)
	}
}

func TestLookupMatchesHostTranslation(t *testing.T) {
	tl, mem, buf := populated(t, 4)
	for _, off := range []int{0, 1, 4095, page - 1, page, 3*page + 12345} {
		va := buf.Base() + hostmem.Addr(off)
		got, err := tl.Lookup(va)
		if err != nil {
			t.Fatalf("off %d: %v", off, err)
		}
		want, err := mem.Translate(va)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("off %d: TLB %#x, host %#x", off, uint64(got), uint64(want))
		}
	}
}

func TestLookupMiss(t *testing.T) {
	tl, _, buf := populated(t, 2)
	_, err := tl.Lookup(buf.Base() + hostmem.Addr(10*page))
	if err == nil {
		t.Fatal("miss not reported")
	}
	if tl.Misses != 1 {
		t.Errorf("misses = %d", tl.Misses)
	}
}

func TestPopulateRejectsUnaligned(t *testing.T) {
	tl := New(4)
	if err := tl.Populate(0, 123); err == nil {
		t.Error("unaligned PA accepted")
	}
}

func TestPopulateCapacity(t *testing.T) {
	tl := New(2)
	if err := tl.Populate(hostmem.Addr(0), hostmem.Addr(0)); err != nil {
		t.Fatal(err)
	}
	if err := tl.Populate(hostmem.Addr(page), hostmem.Addr(page)); err != nil {
		t.Fatal(err)
	}
	if err := tl.Populate(hostmem.Addr(2*page), hostmem.Addr(2*page)); err != ErrFull {
		t.Errorf("err = %v, want ErrFull", err)
	}
	// Re-populating an existing entry is allowed at capacity.
	if err := tl.Populate(hostmem.Addr(page), hostmem.Addr(4*page)); err != nil {
		t.Errorf("repopulate: %v", err)
	}
}

func TestSplitWithinPage(t *testing.T) {
	tl, _, buf := populated(t, 2)
	segs, err := tl.Split(nil, buf.Base()+100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Len != 1000 {
		t.Errorf("segs = %v", segs)
	}
	if tl.Splits != 0 {
		t.Errorf("splits = %d", tl.Splits)
	}
}

func TestSplitAcrossPages(t *testing.T) {
	tl, mem, buf := populated(t, 3)
	va := buf.Base() + hostmem.Addr(page-100)
	segs, err := tl.Split(nil, va, 100+page+50)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("segs = %v", segs)
	}
	if segs[0].Len != 100 || segs[1].Len != page || segs[2].Len != 50 {
		t.Errorf("lengths = %d,%d,%d", segs[0].Len, segs[1].Len, segs[2].Len)
	}
	// Each segment must translate consistently with the host page table.
	cur := va
	for _, s := range segs {
		want, _ := mem.Translate(cur)
		if s.PA != want {
			t.Errorf("segment PA %#x, want %#x", uint64(s.PA), uint64(want))
		}
		cur += hostmem.Addr(s.Len)
	}
	if tl.Splits != 1 {
		t.Errorf("splits = %d", tl.Splits)
	}
	// The DMA engine passes a recycled record's storage as dst: the
	// result must land in it, and whatever dst already held neither be
	// disturbed nor counted as a split.
	again, err := tl.Split(segs[:1], va, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || &again[0] != &segs[0] || again[0].Len != 100 || again[1].Len != 10 {
		t.Errorf("append into dst = %v (reused storage: %v)", again, &again[0] == &segs[0])
	}
	if tl.Splits != 1 {
		t.Errorf("splits after a one-segment append = %d, want 1", tl.Splits)
	}
}

func TestSplitErrors(t *testing.T) {
	tl, _, buf := populated(t, 1)
	if _, err := tl.Split(nil, buf.Base(), 0); !errors.Is(err, ErrBadLength) {
		t.Errorf("err = %v", err)
	}
	if _, err := tl.Split(nil, buf.Base(), -1); !errors.Is(err, ErrBadLength) {
		t.Errorf("negative length: err = %v", err)
	}
	if _, err := tl.Split(nil, buf.Base(), page+1); !errors.Is(err, ErrMiss) {
		t.Errorf("split past mapping: err = %v", err)
	}
}

// TestSplitRegionEdges pins the boundary arithmetic: a command ending
// exactly at the last mapped byte succeeds, one byte further misses.
func TestSplitRegionEdges(t *testing.T) {
	tl, _, buf := populated(t, 2)
	end := buf.Base() + hostmem.Addr(2*page)
	segs, err := tl.Split(nil, end-64, 64)
	if err != nil {
		t.Fatalf("split ending at region edge: %v", err)
	}
	total := 0
	for _, s := range segs {
		total += s.Len
	}
	if total != 64 {
		t.Fatalf("edge split covered %d bytes, want 64", total)
	}
	if _, err := tl.Split(nil, end-63, 64); !errors.Is(err, ErrMiss) {
		t.Fatalf("split crossing region edge: err = %v, want ErrMiss", err)
	}
	if _, err := tl.Split(nil, end, 1); !errors.Is(err, ErrMiss) {
		t.Fatalf("split starting past region: err = %v, want ErrMiss", err)
	}
}

// TestSplitWrapBoundary pins the VA+length uint64-wrap check: before the
// fix the per-page walk marched through the wrap and could succeed
// against whatever pages were mapped near address zero.
func TestSplitWrapBoundary(t *testing.T) {
	tl := New(0)
	// Map the top-most huge page so the walk would have pages to find.
	top := hostmem.Addr(math.MaxUint64) &^ hostmem.Addr(page-1)
	if err := tl.Populate(top, hostmem.Addr(page)); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Split(nil, hostmem.Addr(math.MaxUint64-8), 64); !errors.Is(err, ErrWrap) {
		t.Fatalf("wrapping split: err = %v, want ErrWrap", err)
	}
	// The degenerate wrap where VA+n == 0 exactly must be caught too.
	if _, err := tl.Split(nil, hostmem.Addr(math.MaxUint64-63), 64); !errors.Is(err, ErrWrap) {
		t.Fatalf("wrap-to-zero split: err = %v, want ErrWrap", err)
	}
	// A command ending exactly at the top of the address space does not
	// wrap and must pass the wrap check (it fails later only if unmapped).
	if _, err := tl.Split(nil, hostmem.Addr(math.MaxUint64-64), 64); errors.Is(err, ErrWrap) {
		t.Fatal("non-wrapping split at top of address space rejected as wrap")
	}
}

func TestSplitPropertyExactCoverNoCrossing(t *testing.T) {
	tl, _, buf := populated(t, 8)
	f := func(off uint32, ln uint32) bool {
		o := int(off % uint32(5*page))
		n := int(ln%uint32(page*2)) + 1 // o+n <= 7*page+1, inside the 8-page mapping
		va := buf.Base() + hostmem.Addr(o)
		segs, err := tl.Split(nil, va, n)
		if err != nil {
			return false
		}
		total := 0
		for _, s := range segs {
			// No segment may cross a physical page boundary.
			if int(s.PA.PageOffset())+s.Len > page {
				return false
			}
			total += s.Len
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLookupCounter(t *testing.T) {
	tl, _, buf := populated(t, 2)
	before := tl.Lookups
	if _, err := tl.Split(nil, buf.Base(), 10); err != nil {
		t.Fatal(err)
	}
	if tl.Lookups != before+1 {
		t.Errorf("lookups = %d", tl.Lookups-before)
	}
}
