package hostmem

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocateBasics(t *testing.T) {
	m := New(16)
	b, err := m.Allocate(100)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 100 {
		t.Errorf("size = %d", b.Size())
	}
	if b.Base() == 0 {
		t.Error("VA 0 handed out")
	}
	if b.Base().PageOffset() != 0 {
		t.Error("buffer not page aligned")
	}
	if m.MappedPages() != 1 {
		t.Errorf("mapped = %d", m.MappedPages())
	}
}

func TestAllocateRejectsBadSizes(t *testing.T) {
	m := New(4)
	if _, err := m.Allocate(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := m.Allocate(-5); err == nil {
		t.Error("negative size accepted")
	}
}

func TestAllocateExhaustion(t *testing.T) {
	m := New(2)
	if _, err := m.Allocate(2 * HugePageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(1); err != ErrExhausted {
		t.Errorf("err = %v, want ErrExhausted", err)
	}
}

func TestVirtReadWriteRoundTrip(t *testing.T) {
	m := New(16)
	b, err := m.Allocate(3 * HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5000)
	rand.New(rand.NewSource(1)).Read(data)
	// Straddle a page boundary deliberately.
	va := b.Base() + Addr(HugePageSize-2500)
	if err := m.WriteVirt(va, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadVirt(va, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch across page boundary")
	}
	// ReadVirtInto refills a caller's buffer with the same bytes, and
	// reports the same errors without allocating one.
	into := bytes.Repeat([]byte{0xEE}, len(data))
	if err := m.ReadVirtInto(va, into); err != nil || !bytes.Equal(into, data) {
		t.Errorf("ReadVirtInto across the page boundary: err = %v, equal = %v", err, bytes.Equal(into, data))
	}
	if err := m.ReadVirtInto(Addr(math.MaxUint64-8), into[:64]); !errors.Is(err, ErrWrap) {
		t.Errorf("ReadVirtInto wrap: err = %v, want ErrWrap", err)
	}
	if err := m.ReadVirtInto(b.Base()+Addr(b.Size()), into[:8]); err == nil {
		t.Error("ReadVirtInto past the buffer's last page succeeded")
	}
}

func TestPhysicalPagesScattered(t *testing.T) {
	m := New(16)
	b, err := m.Allocate(4 * HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	pas, err := b.PhysicalPages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pas) != 4 {
		t.Fatalf("%d pages", len(pas))
	}
	contiguous := true
	for i := 1; i < len(pas); i++ {
		if pas[i] != pas[i-1]+HugePageSize {
			contiguous = false
		}
	}
	if contiguous {
		t.Error("physical pages are contiguous; the TLB split path would never run")
	}
}

func TestTranslateConsistency(t *testing.T) {
	m := New(16)
	b, _ := m.Allocate(2 * HugePageSize)
	va := b.Base() + 12345
	pa, err := m.Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	if pa.PageOffset() != va.PageOffset() {
		t.Error("translation changed page offset")
	}
	if _, err := m.Translate(0); err != ErrNotMapped {
		t.Errorf("null translate err = %v", err)
	}
}

func TestVirtPhysAgree(t *testing.T) {
	m := New(16)
	b, _ := m.Allocate(HugePageSize)
	va := b.Base() + 100
	want := []byte("strom payload")
	if err := m.WriteVirt(va, want); err != nil {
		t.Fatal(err)
	}
	pa, _ := m.Translate(va)
	got, err := m.ReadPhys(pa, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("virtual write invisible through physical read")
	}
	into := make([]byte, len(want))
	if err := m.ReadPhysInto(pa, into); err != nil || !bytes.Equal(into, want) {
		t.Errorf("ReadPhysInto = %q, %v", into, err)
	}
}

func TestPhysAccessCrossingPages(t *testing.T) {
	// Physical access that runs past the end of a page must continue into
	// the *physically* next page; with scattered allocation that page
	// generally belongs to nobody, so the access must fail. This is the
	// bug the TLB's split logic exists to prevent.
	m := New(16)
	b, _ := m.Allocate(2 * HugePageSize)
	pas, _ := b.PhysicalPages()
	pa := pas[0] + Addr(HugePageSize-10)
	if err := m.WritePhys(pa, make([]byte, 20)); err == nil {
		t.Error("cross-physical-page access unexpectedly mapped")
	}
}

// TestViewPhysAliasesHostMemory: a view is the memory itself — it shows
// a later write — is capped at its length, stays inside one page, and
// fails like any access on a freed or unknown page.
func TestViewPhysAliasesHostMemory(t *testing.T) {
	m := New(16)
	b, _ := m.Allocate(2 * HugePageSize)
	pas, _ := b.PhysicalPages()
	if err := m.WriteVirt(b.Base()+100, []byte("before")); err != nil {
		t.Fatal(err)
	}
	v, err := m.ViewPhys(pas[0]+100, 6)
	if err != nil || string(v) != "before" || cap(v) != 6 {
		t.Fatalf("view = %q (cap %d), %v", v, cap(v), err)
	}
	if err := m.WriteVirt(b.Base()+100, []byte("after!")); err != nil {
		t.Fatal(err)
	}
	if string(v) != "after!" {
		t.Errorf("view did not follow host memory: %q", v)
	}
	if _, err := m.ViewPhys(pas[0]+Addr(HugePageSize-10), 20); err != ErrBadLength {
		t.Errorf("view across a page end: err = %v, want ErrBadLength", err)
	}
	if _, err := m.ViewPhys(Addr(1)<<40, 8); err == nil {
		t.Error("view of an unknown page succeeded")
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ViewPhys(pas[0], 8); err == nil {
		t.Error("view of a freed page succeeded")
	}
}

func TestFree(t *testing.T) {
	m := New(4)
	b, _ := m.Allocate(HugePageSize)
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(); err != ErrDoubleFree {
		t.Errorf("double free err = %v", err)
	}
	if _, err := m.ReadVirt(b.Base(), 10); err == nil {
		t.Error("read after free succeeded")
	}
	// The pages are reusable.
	if _, err := m.Allocate(4 * HugePageSize); err != nil {
		t.Errorf("allocate after free: %v", err)
	}
}

func TestContains(t *testing.T) {
	m := New(4)
	b, _ := m.Allocate(1000)
	if !b.Contains(b.Base(), 1000) {
		t.Error("full range not contained")
	}
	if b.Contains(b.Base(), 1001) {
		t.Error("overflow contained")
	}
	if b.Contains(b.Base()-1, 1) {
		t.Error("below base contained")
	}
	if b.Contains(b.Base(), -1) {
		t.Error("negative length contained")
	}
	// A range whose VA+length wraps uint64 used to alias back into the
	// buffer's arithmetic; it must never be contained.
	if b.Contains(Addr(math.MaxUint64-8), 64) {
		t.Error("wrapping range contained")
	}
}

// TestVirtAccessWrapBoundary pins the CPU-access wrap guards: reads and
// writes whose VA+length wraps the 64-bit space fail with ErrWrap
// instead of walking pages through the wrap.
func TestVirtAccessWrapBoundary(t *testing.T) {
	m := New(4)
	if _, err := m.ReadVirt(Addr(math.MaxUint64-8), 64); !errors.Is(err, ErrWrap) {
		t.Fatalf("ReadVirt wrap: err = %v, want ErrWrap", err)
	}
	if err := m.WriteVirt(Addr(math.MaxUint64-8), make([]byte, 64)); !errors.Is(err, ErrWrap) {
		t.Fatalf("WriteVirt wrap: err = %v, want ErrWrap", err)
	}
	// Wrap-to-zero exactly (VA+n == 0) is still a wrap.
	if _, err := m.ReadVirt(Addr(math.MaxUint64-63), 64); !errors.Is(err, ErrWrap) {
		t.Fatalf("ReadVirt wrap-to-zero: err = %v, want ErrWrap", err)
	}
	// Zero-length accesses at the very top of the space are legal no-ops.
	if _, err := m.ReadVirt(Addr(math.MaxUint64), 0); err != nil {
		t.Fatalf("zero-length read at top: %v", err)
	}
	if err := m.WriteVirt(Addr(math.MaxUint64), nil); err != nil {
		t.Fatalf("zero-length write at top: %v", err)
	}
}

func TestAllocationsDoNotAlias(t *testing.T) {
	m := New(32)
	a, _ := m.Allocate(HugePageSize)
	b, _ := m.Allocate(HugePageSize)
	if err := m.WriteVirt(a.Base(), bytes.Repeat([]byte{0xAA}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteVirt(b.Base(), bytes.Repeat([]byte{0xBB}, 64)); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadVirt(a.Base(), 64)
	for _, x := range got {
		if x != 0xAA {
			t.Fatal("buffers alias")
		}
	}
}

func TestReadWriteProperty(t *testing.T) {
	m := New(64)
	b, err := m.Allocate(8 * HugePageSize)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := int(off) % (b.Size() - len(data))
		if o < 0 {
			return true
		}
		va := b.Base() + Addr(o)
		if err := m.WriteVirt(va, data); err != nil {
			return false
		}
		got, err := m.ReadVirt(va, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A watch hears every write that overlaps its range, by VA or by PA, and
// nothing else; a range across a huge page is watched on both scattered
// physical pages; Free counts as a change; Unwatch is final.
func TestWatch(t *testing.T) {
	m := New(16)
	b, _ := m.Allocate(3 * HugePageSize)
	pas, _ := b.PhysicalPages()
	va := b.Base() + Addr(HugePageSize-4) // 8 bytes: 4 on page 0, 4 on page 1
	var heard, other int
	var w, bystander Watch
	if err := m.Watch(&bystander, b.Base()+Addr(2*HugePageSize), 8, func() { other++ }); err != nil {
		t.Fatal(err)
	}
	if err := m.Watch(&w, va, 8, func() { heard++ }); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		write func() error
		hears bool
	}{
		{"store inside", func() error { return m.WriteVirt(va+2, []byte{1}) }, true},
		{"store ending just before", func() error { return m.WriteVirt(va-4, make([]byte, 4)) }, false},
		{"store starting just after", func() error { return m.WriteVirt(va+8, make([]byte, 4)) }, false},
		{"store over the whole range", func() error { return m.WriteVirt(va-100, make([]byte, 200)) }, true},
		{"DMA into page 1's segment", func() error { return m.WritePhys(pas[1]+3, []byte{1}) }, true},
		{"DMA past page 1's segment", func() error { return m.WritePhys(pas[1]+4, []byte{1}) }, false},
		{"DMA into page 0's segment", func() error { return m.WritePhys(pas[0]+Addr(HugePageSize-1), []byte{1}) }, true},
		{"DMA before page 0's segment", func() error { return m.WritePhys(pas[0]+Addr(HugePageSize-8), make([]byte, 4)) }, false},
		{"empty store inside", func() error { return m.WriteVirt(va, nil) }, false},
	} {
		before := heard
		if err := c.write(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := heard > before; got != c.hears {
			t.Errorf("%s: heard = %v, want %v", c.name, got, c.hears)
		}
	}
	if other != 0 {
		t.Errorf("a watch on page 2 heard %d writes to pages 0 and 1", other)
	}
	if m.Watches() != 2 {
		t.Errorf("Watches() = %d, want 2", m.Watches())
	}
	m.Unwatch(&w)
	m.Unwatch(&w) // not registered any more: nothing to do
	if m.Watches() != 1 {
		t.Errorf("after Unwatch, Watches() = %d, want 1", m.Watches())
	}
	heard = 0
	if err := m.WriteVirt(va, []byte{1}); err != nil || heard != 0 {
		t.Errorf("an unwatched range was heard (%d, %v)", heard, err)
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if other != 1 {
		t.Errorf("Free of a watched page was heard %d times, want 1", other)
	}
	m.Unwatch(&bystander)
	if err := m.Watch(&w, va, 8, func() {}); !errors.Is(err, ErrNotMapped) {
		t.Errorf("watch on a freed range: err = %v, want ErrNotMapped", err)
	}
	if err := m.Watch(&w, va, -1, func() {}); err != ErrBadLength {
		t.Errorf("watch with a negative length: err = %v, want ErrBadLength", err)
	}
	if m.Watches() != 0 {
		t.Errorf("failed watches registered: Watches() = %d", m.Watches())
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(3*HugePageSize + 17)
	if a.PageNumber() != 3 {
		t.Errorf("page = %d", a.PageNumber())
	}
	if a.PageOffset() != 17 {
		t.Errorf("offset = %d", a.PageOffset())
	}
}
