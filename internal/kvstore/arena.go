package kvstore

import "strom/internal/hostmem"

// Arena is a free-list allocator layered over a Region: Alloc prefers a
// previously freed block of the same size class (8 B-aligned length,
// LIFO so reuse is immediate and deterministic) and falls back to the
// region bump pointer. Free returns a block to its class. The Region
// itself never reclaims, so Region.Used() growing across a
// delete→reinsert cycle means something leaked.
type Arena struct {
	region *Region
	free   map[int][]hostmem.Addr
	live   int
}

// NewArena wraps a region with free-list reuse.
func NewArena(r *Region) *Arena {
	return &Arena{region: r, free: make(map[int][]hostmem.Addr)}
}

func sizeClass(n int) int { return (n + 7) &^ 7 }

// Alloc returns n bytes, reusing a freed same-class block when one exists.
func (a *Arena) Alloc(n int) (hostmem.Addr, error) {
	class := sizeClass(n)
	if list := a.free[class]; len(list) > 0 {
		va := list[len(list)-1]
		a.free[class] = list[:len(list)-1]
		a.live++
		return va, nil
	}
	va, err := a.region.Alloc(n)
	if err != nil {
		return 0, err
	}
	a.live++
	return va, nil
}

// Free returns the n-byte block at va to its size-class free list.
func (a *Arena) Free(va hostmem.Addr, n int) {
	class := sizeClass(n)
	a.free[class] = append(a.free[class], va)
	a.live--
}

// FixedArena allocates fixed-stride slots from a bounded offset space —
// the shape of a per-shard extent arena, where every block is one
// ExtentSize-stride extent and addresses are offsets from the arena
// base. Freed slots are reused LIFO, so a free immediately followed by
// an alloc returns the same offset (in-place overwrite: the property
// the torn-read chaos regime leans on).
type FixedArena struct {
	stride int
	cap    int
	next   int
	free   []int
}

// NewFixedArena builds an arena of capacity slots of the given stride.
func NewFixedArena(stride, capacity int) *FixedArena {
	return &FixedArena{stride: stride, cap: capacity}
}

// Alloc returns the byte offset of a free slot.
func (f *FixedArena) Alloc() (int, error) {
	if n := len(f.free); n > 0 {
		off := f.free[n-1]
		f.free = f.free[:n-1]
		return off, nil
	}
	if f.next >= f.cap {
		return 0, ErrRegionFull
	}
	off := f.next * f.stride
	f.next++
	return off, nil
}

// Free returns a slot offset to the free list.
func (f *FixedArena) Free(off int) {
	f.free = append(f.free, off)
}

// Live reports slots currently allocated and not freed.
func (f *FixedArena) Live() int { return f.next - len(f.free) }
