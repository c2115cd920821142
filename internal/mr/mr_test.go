package mr

import (
	"errors"
	"math"
	"testing"
)

func mustRegister(t *testing.T, tbl *Table, base, size uint64, flags Access) *Region {
	t.Helper()
	r, err := tbl.Register(base, size, flags)
	if err != nil {
		t.Fatalf("Register(%#x, %d): %v", base, size, err)
	}
	return r
}

func TestRegisterRejectsBadRanges(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Register(0x1000, 0, AccessFull); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("zero size: got %v, want ErrBadRegion", err)
	}
	if _, err := tbl.Register(math.MaxUint64-16, 64, AccessFull); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("wrapping range: got %v, want ErrBadRegion", err)
	}
	mustRegister(t, tbl, 0x1000, 0x1000, AccessFull)
	if _, err := tbl.Register(0x1800, 0x1000, AccessFull); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlap: got %v, want ErrOverlap", err)
	}
}

func TestCheckRemoteMatrix(t *testing.T) {
	tbl := NewTable()
	rw := mustRegister(t, tbl, 0x10000, 0x1000, AccessFull)
	ro := mustRegister(t, tbl, 0x20000, 0x1000, AccessRemoteRead|AccessLocal)

	cases := []struct {
		name  string
		rkey  uint32
		va, n uint64
		need  Access
		class Class
		ok    bool
	}{
		{"valid key read", rw.RKey(), 0x10000, 64, AccessRemoteRead, 0, true},
		{"valid key write full region", rw.RKey(), 0x10000, 0x1000, AccessRemoteWrite, 0, true},
		{"valid key at upper edge", rw.RKey(), 0x10000 + 0x1000 - 64, 64, AccessRemoteWrite, 0, true},
		{"zero length always passes", 0xDEADBEEF, 12345, 0, AccessRemoteWrite, 0, true},
		{"bad rkey", 0xDEADBEEF, 0x10000, 64, AccessRemoteWrite, ClassBadRKey, false},
		{"wrong key stamp", rw.RKey() ^ 0x01, 0x10000, 64, AccessRemoteWrite, ClassStaleEpoch, false},
		{"oob one past end", rw.RKey(), 0x10000 + 0x1000 - 63, 64, AccessRemoteWrite, ClassOutOfBounds, false},
		{"oob before base", rw.RKey(), 0x10000 - 1, 64, AccessRemoteWrite, ClassOutOfBounds, false},
		{"oob uint64 wrap", rw.RKey(), math.MaxUint64 - 8, 64, AccessRemoteWrite, ClassOutOfBounds, false},
		{"permission write to ro", ro.RKey(), 0x20000, 64, AccessRemoteWrite, ClassPermission, false},
		{"ro region still readable", ro.RKey(), 0x20000, 64, AccessRemoteRead, 0, true},
		{"wildcard read", 0, 0x10000, 64, AccessRemoteRead, 0, true},
		{"wildcard unregistered", 0, 0x90000, 64, AccessRemoteRead, ClassUnregistered, false},
		{"wildcard oob", 0, 0x10000 + 0x1000 - 8, 64, AccessRemoteRead, ClassOutOfBounds, false},
		{"wildcard wrap", 0, math.MaxUint64 - 8, 64, AccessRemoteRead, ClassOutOfBounds, false},
		{"wildcard permission", 0, 0x20000, 64, AccessRemoteWrite, ClassPermission, false},
	}
	for _, tc := range cases {
		f := tbl.CheckRemote(tc.rkey, tc.va, tc.n, tc.need)
		if tc.ok {
			if f != nil {
				t.Errorf("%s: unexpected fault %v", tc.name, f)
			}
			continue
		}
		if f == nil {
			t.Errorf("%s: expected %v fault, got pass", tc.name, tc.class)
			continue
		}
		if f.Class != tc.class {
			t.Errorf("%s: class %v, want %v", tc.name, f.Class, tc.class)
		}
		if !errors.Is(f, ErrAccess) {
			t.Errorf("%s: fault does not wrap ErrAccess", tc.name)
		}
	}
}

func TestRotateKeysInvalidatesOldKeys(t *testing.T) {
	tbl := NewTable()
	r := mustRegister(t, tbl, 0x10000, 0x1000, AccessFull)
	old := r.RKey()
	tbl.RotateKeys()
	if r.RKey() == old {
		t.Fatal("RotateKeys did not restamp the region key")
	}
	if f := tbl.CheckRemote(old, 0x10000, 64, AccessRemoteRead); f == nil || f.Class != ClassStaleEpoch {
		t.Fatalf("old key after rotation: got %v, want stale_epoch", f)
	}
	if f := tbl.CheckRemote(r.RKey(), 0x10000, 64, AccessRemoteRead); f != nil {
		t.Fatalf("current key after rotation rejected: %v", f)
	}
}

func TestDeregisterAndSlotReuse(t *testing.T) {
	tbl := NewTable()
	r := mustRegister(t, tbl, 0x10000, 0x1000, AccessFull)
	old := r.RKey()
	if err := tbl.Deregister(r); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Deregister(r); !errors.Is(err, ErrDead) {
		t.Fatalf("double deregister: got %v, want ErrDead", err)
	}
	if f := tbl.CheckRemote(old, 0x10000, 64, AccessRemoteRead); f == nil || f.Class != ClassBadRKey {
		t.Fatalf("key after deregister: got %v, want bad_rkey", f)
	}
	// Re-register into the same slot: the old key must stay invalid.
	r2 := mustRegister(t, tbl, 0x10000, 0x1000, AccessFull)
	if r2.RKey() == old {
		t.Fatal("slot reuse reissued the deregistered key")
	}
	if f := tbl.CheckRemote(old, 0x10000, 64, AccessRemoteRead); f == nil || f.Class != ClassStaleEpoch {
		t.Fatalf("old key against reused slot: got %v, want stale_epoch", f)
	}
}

func TestCheckVAAndProbe(t *testing.T) {
	tbl := NewTable()
	mustRegister(t, tbl, 0x10000, 0x1000, AccessRemoteRead|AccessLocal) // no kernel bit
	if f := tbl.CheckVA(0x10000, 64, AccessKernel); f == nil || f.Class != ClassPermission {
		t.Fatalf("kernel access without bit: got %v, want permission", f)
	}
	if f := tbl.CheckVA(0x90000, 64, AccessLocal); f == nil || f.Class != ClassUnregistered {
		t.Fatalf("unregistered VA: got %v, want unregistered", f)
	}
	if f := tbl.CheckVA(math.MaxUint64-8, 64, AccessLocal); f == nil || f.Class != ClassOutOfBounds {
		t.Fatalf("wrap: got %v, want out_of_bounds", f)
	}
	if f := tbl.CheckVA(0x10000, 0, AccessKernel); f != nil {
		t.Fatalf("zero-length: got %v, want pass", f)
	}
	before := tbl.FailCount(ClassUnregistered)
	if f := tbl.Probe(0x90000, 64, AccessLocal); f == nil {
		t.Fatal("Probe missed an unregistered access")
	}
	if got := tbl.FailCount(ClassUnregistered); got != before {
		t.Fatalf("Probe perturbed the fail counters: %d -> %d", before, got)
	}
}

func TestFailCountersPerClass(t *testing.T) {
	tbl := NewTable()
	r := mustRegister(t, tbl, 0x10000, 0x1000, AccessRemoteRead|AccessLocal)
	tbl.CheckRemote(0xDEADBEEF, 0x10000, 64, AccessRemoteRead) // bad_rkey
	tbl.CheckRemote(r.RKey()^1, 0x10000, 64, AccessRemoteRead) // stale_epoch
	tbl.CheckRemote(r.RKey(), 0x10000, 0x2000, AccessRemoteRead)
	tbl.CheckRemote(r.RKey(), 0x10000, 64, AccessRemoteWrite)
	tbl.CheckRemote(0, 0x90000, 64, AccessRemoteRead)
	for c := Class(0); c < NumClasses; c++ {
		if got := tbl.FailCount(c); got != 1 {
			t.Errorf("FailCount(%v) = %d, want 1", c, got)
		}
	}
}
