package kvstore

import (
	"bytes"
	"errors"
	"testing"
)

func TestArenaReuseSameClass(t *testing.T) {
	_, r := newRegion(t, 2)
	a := NewArena(r)
	va, err := a.Alloc(24)
	if err != nil {
		t.Fatal(err)
	}
	used := r.Used()
	a.Free(va, 24)
	if len(a.free[24]) != 1 || a.live != 0 {
		t.Errorf("after Free: %d blocks free in the 24 B class, live = %d; want 1 and 0", len(a.free[24]), a.live)
	}
	// 17..24 all share the 24 B class, so any of them reuses the block.
	got, err := a.Alloc(17)
	if err != nil {
		t.Fatal(err)
	}
	if got != va {
		t.Errorf("Alloc after Free = %#x, want reuse of %#x", got, va)
	}
	if len(a.free[24]) != 0 || r.Used() != used {
		t.Errorf("reuse left %d blocks free and moved the region %d → %d bytes", len(a.free[24]), used, r.Used())
	}
	if a.live != 1 {
		t.Errorf("live = %d", a.live)
	}
}

func TestArenaLIFOAndClassIsolation(t *testing.T) {
	_, r := newRegion(t, 2)
	a := NewArena(r)
	v1, _ := a.Alloc(8)
	v2, _ := a.Alloc(8)
	v3, _ := a.Alloc(32)
	a.Free(v1, 8)
	a.Free(v2, 8)
	if got, _ := a.Alloc(8); got != v2 {
		t.Errorf("LIFO reuse = %#x, want %#x", got, v2)
	}
	// A 32 B request must not take from the 8 B class.
	a.Free(v3, 32)
	if got, _ := a.Alloc(32); got != v3 {
		t.Errorf("class reuse = %#x, want %#x", got, v3)
	}
	if got, _ := a.Alloc(8); got != v1 {
		t.Errorf("second 8B reuse = %#x, want %#x", got, v1)
	}
}

func TestFixedArenaReuseAndExhaustion(t *testing.T) {
	f := NewFixedArena(128, 2)
	o1, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := f.Alloc()
	if o1 != 0 || o2 != 128 {
		t.Errorf("offsets = %d, %d", o1, o2)
	}
	if _, err := f.Alloc(); !errors.Is(err, ErrRegionFull) {
		t.Errorf("err = %v", err)
	}
	f.Free(o1)
	if len(f.free) != 1 || f.Live() != 1 {
		t.Errorf("live = %d", f.Live())
	}
	// Free immediately followed by Alloc returns the same slot: the
	// in-place-overwrite property the torn-read regime depends on.
	got, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if got != o1 {
		t.Errorf("realloc = %d, want %d", got, o1)
	}
	if len(f.free) != 0 || f.next != 2 {
		t.Errorf("realloc left %d slots free with %d handed out fresh, want 0 and 2", len(f.free), f.next)
	}
}

// TestHashTableDeleteReinsertReuse is the tombstone-leak table test:
// across delete→reinsert and overwrite cycles the region bump pointer
// must not move once the table reaches steady state.
func TestHashTableDeleteReinsertReuse(t *testing.T) {
	cases := []struct {
		name string
		vlen int
		ops  int
	}{
		{"small-8B", 8, 16},
		{"mid-24B", 24, 16},
		{"large-96B", 96, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, r := newRegion(t, 2)
			h, err := BuildHashTable(r, 64)
			if err != nil {
				t.Fatal(err)
			}
			val := func(i int) []byte {
				return bytes.Repeat([]byte{byte(i + 1)}, tc.vlen)
			}
			const key = 7
			if err := h.Put(key, val(0)); err != nil {
				t.Fatal(err)
			}
			a := h.Arena()
			class := sizeClass(tc.vlen)
			used := r.Used()
			for i := 1; i <= tc.ops; i++ {
				if i%2 == 0 {
					// Overwrite in place.
					if err := h.Put(key, val(i)); err != nil {
						t.Fatal(err)
					}
				} else {
					// Delete then reinsert: the tombstone must hand
					// its value bytes back.
					if ok, err := h.Delete(key); err != nil || !ok {
						t.Fatalf("Delete = %v, %v", ok, err)
					}
					if err := h.Put(key, val(i)); err != nil {
						t.Fatal(err)
					}
				}
				if r.Used() != used {
					t.Fatalf("op %d: region grew %d → %d bytes (leak)", i, used, r.Used())
				}
				// Every op freed the old value's block: the new value
				// took it back, so none is left free.
				if n := len(a.free[class]); n != 0 {
					t.Fatalf("op %d: %d freed blocks not reused", i, n)
				}
				got, ok := h.Get(key)
				if !ok || !bytes.Equal(got, val(i)) {
					t.Fatalf("op %d: Get = %q, %v", i, got, ok)
				}
			}
			if a.live != 1 {
				t.Errorf("live = %d", a.live)
			}
		})
	}
}

// TestHashTableMixedSizesNoLeak churns several keys with distinct value
// sizes: after the first full round every class is warm and the region
// stops growing.
func TestHashTableMixedSizesNoLeak(t *testing.T) {
	_, r := newRegion(t, 2)
	h, err := BuildHashTable(r, 256)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{8, 16, 24, 48, 96}
	for round := 0; round < 6; round++ {
		for i, n := range sizes {
			key := uint64(100 + i)
			v := bytes.Repeat([]byte{byte(round)}, n)
			if round > 0 {
				if _, err := h.Delete(key); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.Put(key, v); err != nil {
				t.Fatal(err)
			}
		}
		if round == 0 {
			continue
		}
		if round == 1 {
			// Steady state reached after the first churn round.
			used := r.Used()
			t.Cleanup(func() {
				if r.Used() != used {
					t.Errorf("region grew %d → %d after steady state", used, r.Used())
				}
			})
		}
	}
	for i, n := range sizes {
		got, ok := h.Get(uint64(100 + i))
		if !ok || len(got) != n || got[0] != 5 {
			t.Fatalf("key %d: got %v %v", 100+i, got, ok)
		}
	}
	if live := h.Arena().live; live != len(sizes) {
		t.Errorf("live = %d, want %d", live, len(sizes))
	}
}
