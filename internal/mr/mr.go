// Package mr implements the NIC's memory-region protection table: the
// registration state that turns a raw TLB (which only answers "is this
// page pinned?") into protection domains. Every remote RETH and every
// kernel-issued DMA command is validated against this table before any
// byte of host memory is touched — bounds, access flags, rkey match and
// VA+length wrap — mirroring the InfiniBand MR/rkey model the paper's
// driver path (§4.3) leaves implicit.
//
// Keys encode their region slot and a per-slot generation stamped with
// the table epoch: rkey = (slot+1)<<8 | (epoch+gen). Rotating the epoch
// (a NIC restart) or re-registering a slot restamps the key, so a
// requester holding a stale rkey is rejected with a typed fault instead
// of silently reading re-registered memory. Key zero is the documented
// "unsafe wildcard key" (the IB_PD_UNSAFE_GLOBAL_RKEY analogue): it
// selects the region by VA containment and still enforces bounds, wrap
// and permission checks, but skips the key match.
package mr

import (
	"errors"
	"fmt"
)

// Access is a region's permission bitmask. AccessLocal (host-initiated
// DMA: payload fetches, read sinks, local streaming) is always granted
// at registration — the host owns its memory — while the remote and
// kernel bits gate the one-sided and kernel data paths independently.
type Access uint8

// Access flag bits.
const (
	AccessRemoteRead Access = 1 << iota
	AccessRemoteWrite
	AccessKernel
	AccessLocal
)

// AccessFull grants everything (the AllocBuffer default).
const AccessFull = AccessRemoteRead | AccessRemoteWrite | AccessKernel | AccessLocal

// String renders the mask as "rwkl"-style flags.
func (a Access) String() string {
	buf := []byte("----")
	if a&AccessRemoteRead != 0 {
		buf[0] = 'r'
	}
	if a&AccessRemoteWrite != 0 {
		buf[1] = 'w'
	}
	if a&AccessKernel != 0 {
		buf[2] = 'k'
	}
	if a&AccessLocal != 0 {
		buf[3] = 'l'
	}
	return string(buf)
}

// Class is a validation-failure class. The names are stable: they label
// the mr_validation_fail telemetry counter and the NAK-matrix tests.
type Class uint8

// Violation classes.
const (
	ClassBadRKey      Class = iota // key names no live region slot
	ClassStaleEpoch                // slot live, key stamp out of date
	ClassOutOfBounds               // range leaves the region or wraps uint64
	ClassPermission                // region lacks the needed access bit
	ClassUnregistered              // wildcard lookup found no region at VA
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassBadRKey:
		return "bad_rkey"
	case ClassStaleEpoch:
		return "stale_epoch"
	case ClassOutOfBounds:
		return "out_of_bounds"
	case ClassPermission:
		return "permission"
	case ClassUnregistered:
		return "unregistered"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ErrAccess is the sentinel every validation fault wraps:
// errors.Is(err, mr.ErrAccess) catches all five classes.
var ErrAccess = errors.New("mr: memory access violation")

// Registration errors.
var (
	ErrBadRegion = errors.New("mr: bad region (empty or wrapping range)")
	ErrOverlap   = errors.New("mr: region overlaps an existing registration")
	ErrDead      = errors.New("mr: region already deregistered")
)

// Fault describes one rejected access. It wraps ErrAccess.
type Fault struct {
	Class Class
	RKey  uint32
	VA    uint64
	Len   uint64
	Need  Access
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mr: %s: rkey=%#x va=%#x len=%d need=%s", f.Class, f.RKey, f.VA, f.Len, f.Need)
}

func (f *Fault) Unwrap() error { return ErrAccess }

// Region is one registered range. Immutable except for its key, which
// the table restamps on epoch rotation — holders of the *Region always
// see the current key via RKey(), while holders of a captured uint32
// key go stale.
type Region struct {
	slot  int
	gen   uint8
	key   uint32
	base  uint64
	size  uint64
	flags Access
	dead  bool
}

// RKey returns the region's current remote key.
func (r *Region) RKey() uint32 { return r.key }

// Base returns the region's first virtual address.
func (r *Region) Base() uint64 { return r.base }

// Size returns the region's length in bytes.
func (r *Region) Size() uint64 { return r.size }

// Flags returns the region's access mask.
func (r *Region) Flags() Access { return r.flags }

// Table is one NIC's protection table.
type Table struct {
	regions []*Region // dense slot array; nil entries are free
	gens    []uint8   // last generation issued per slot (survives Deregister)
	epoch   uint8
	fails   [NumClasses]uint64
}

// NewTable creates an empty protection table.
func NewTable() *Table { return &Table{} }

// FailCount returns the number of rejected accesses in one class.
func (t *Table) FailCount(c Class) uint64 {
	if c >= NumClasses {
		return 0
	}
	return t.fails[c]
}

// stamp computes a slot's key for the current epoch. Slot numbering is
// offset by one so a valid key is never the wildcard 0.
func (t *Table) stamp(r *Region) {
	r.key = uint32(r.slot+1)<<8 | uint32(t.epoch+r.gen)
}

// Register installs [base, base+size) with the given flags and returns
// the live region. Ranges must be non-empty, must not wrap uint64 and
// must not overlap a live registration.
func (t *Table) Register(base, size uint64, flags Access) (*Region, error) {
	if size == 0 || base+size < base {
		return nil, fmt.Errorf("%w: base=%#x size=%d", ErrBadRegion, base, size)
	}
	for _, r := range t.regions {
		if r != nil && base < r.base+r.size && r.base < base+size {
			return nil, fmt.Errorf("%w: [%#x,%#x) vs [%#x,%#x)", ErrOverlap, base, base+size, r.base, r.base+r.size)
		}
	}
	slot := -1
	for i, r := range t.regions {
		if r == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = len(t.regions)
		t.regions = append(t.regions, nil)
		t.gens = append(t.gens, 0)
	} else {
		// Slot reuse bumps the generation so the previous registration's
		// key can never be reissued by accident.
		t.gens[slot]++
	}
	r := &Region{slot: slot, gen: t.gens[slot], base: base, size: size, flags: flags}
	t.stamp(r)
	t.regions[slot] = r
	return r, nil
}

// Deregister removes a region: its key becomes permanently invalid and
// its slot is free for reuse under a fresh generation.
func (t *Table) Deregister(r *Region) error {
	if r.dead || r.slot >= len(t.regions) || t.regions[r.slot] != r {
		return ErrDead
	}
	r.dead = true
	t.regions[r.slot] = nil
	return nil
}

// RotateKeys advances the registration epoch and restamps every live
// region's key. Called on NIC restart: every rkey handed out before the
// rotation is rejected as stale until the peer re-fetches it.
func (t *Table) RotateKeys() {
	t.epoch++
	for _, r := range t.regions {
		if r != nil {
			t.stamp(r)
		}
	}
}

// RegionAt returns the live region containing va, or nil. Scan order is
// slot order, which is deterministic; registrations never overlap so at
// most one region matches.
func (t *Table) RegionAt(va uint64) *Region {
	for _, r := range t.regions {
		if r != nil && va >= r.base && va < r.base+r.size {
			return r
		}
	}
	return nil
}

// CheckRemote validates a RETH-carried access of [va, va+n) under rkey,
// counting any failure. Zero-length accesses touch no memory and pass
// unconditionally (the IB zero-length semantics).
func (t *Table) CheckRemote(rkey uint32, va, n uint64, need Access) *Fault {
	c, ok := t.checkRemote(rkey, va, n, need)
	if ok {
		return nil
	}
	t.fails[c]++
	return &Fault{Class: c, RKey: rkey, VA: va, Len: n, Need: need}
}

func (t *Table) checkRemote(rkey uint32, va, n uint64, need Access) (Class, bool) {
	if n == 0 {
		return 0, true
	}
	if va+n < va {
		return ClassOutOfBounds, false
	}
	if rkey == 0 {
		return t.checkVA(va, n, need)
	}
	slot := int(rkey>>8) - 1
	if slot < 0 || slot >= len(t.regions) || t.regions[slot] == nil {
		return ClassBadRKey, false
	}
	r := t.regions[slot]
	if r.key != rkey {
		return ClassStaleEpoch, false
	}
	if va < r.base || va+n > r.base+r.size {
		return ClassOutOfBounds, false
	}
	if r.flags&need != need {
		return ClassPermission, false
	}
	return 0, true
}

// CheckVA validates a keyless access of [va, va+n) — the kernel-DMA and
// host-local paths, where the initiator addresses memory directly —
// counting any failure.
func (t *Table) CheckVA(va, n uint64, need Access) *Fault {
	c, ok := t.checkVALen(va, n, need)
	if ok {
		return nil
	}
	t.fails[c]++
	return &Fault{Class: c, VA: va, Len: n, Need: need}
}

// Probe is CheckVA without counting: the invariant-9 DMA guard's ground
// truth, kept separate so observing a run never perturbs its counters.
func (t *Table) Probe(va, n uint64, need Access) *Fault {
	c, ok := t.checkVALen(va, n, need)
	if ok {
		return nil
	}
	return &Fault{Class: c, VA: va, Len: n, Need: need}
}

func (t *Table) checkVALen(va, n uint64, need Access) (Class, bool) {
	if n == 0 {
		return 0, true
	}
	if va+n < va {
		return ClassOutOfBounds, false
	}
	return t.checkVA(va, n, need)
}

func (t *Table) checkVA(va, n uint64, need Access) (Class, bool) {
	r := t.RegionAt(va)
	if r == nil {
		return ClassUnregistered, false
	}
	if va+n > r.base+r.size {
		return ClassOutOfBounds, false
	}
	if r.flags&need != need {
		return ClassPermission, false
	}
	return 0, true
}
