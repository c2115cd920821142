// Package kvserve is the replicated sharded KV dataplane: a
// version-stamped slot store served out of remote memory over one-sided
// verbs, sharded across N servers with primary-backup replication,
// telemetry-driven failure detection and client-side failover. It is the
// paper's smart-remote-memory KV story (§6.2) pushed through the
// robustness machinery the repo has grown since: crash/restart cycles,
// rotated rkeys, bursty loss and incast storms, with an exactly-once
// guarantee for retried Puts that the chaos-kv experiment proves
// end-to-end.
//
// Layout. The key space is range-partitioned by residue: key k belongs
// to shard k mod S. Server i is the primary for shard i and the backup
// for shard (i-1+S) mod S, so every shard has two replicas on distinct
// machines and the loss of any single server leaves every shard served.
// Each shard is a flat array of fixed 48 B slots indexed by k div S —
// the client computes the slot address itself (as in Pilaf) and reaches
// it with one RDMA READ or WRITE, no server CPU on the data path.
//
// Values are stored inline (up to 24 B) rather than behind a value
// pointer, trading the hash table's arbitrary value size for a
// single-segment write: one slot is one wire frame, so a slot is applied
// atomically by the DMA engine and a version can never be split from its
// value by a lost fragment. This is also why the dataplane uses plain
// one-sided verbs rather than the traversal kernel — the kernel's layout
// contract wants value *pointers*, and chasing a pointer would reopen
// the torn-read window the inline layout closes.
package kvserve

import (
	"encoding/binary"
	"errors"
	"fmt"

	"strom/internal/hostmem"
)

// Slot geometry: key (8) | version (8) | vlen (4) | flags (4) | value
// (24) = 48 bytes, 4 B aligned throughout.
const (
	SlotSize   = 48
	ValCap     = 24
	slotKeyOff = 0
	slotVerOff = 8
	slotLenOff = 16
	slotFlgOff = 20
	slotValOff = 24
)

// Slot flags.
const (
	// FlagTombstone marks a deleted key: the slot keeps its version (so
	// deletes are ordered like any other write) but carries no value.
	FlagTombstone = 1 << 0
)

// Errors.
var (
	ErrValueTooLong = errors.New("kvserve: value exceeds inline capacity")
	ErrStale        = errors.New("kvserve: replica behind acked version")
	ErrUnavailable  = errors.New("kvserve: no replica reachable")
)

// Slot is the decoded form of one 48 B slot.
type Slot struct {
	Key   uint64
	Ver   uint64
	Flags uint32
	Val   []byte
}

// Tombstone reports whether the slot is a deletion marker.
func (s Slot) Tombstone() bool { return s.Flags&FlagTombstone != 0 }

// AppendSlot appends a slot's SlotSize-byte image, its wire/memory form,
// to dst (the put path's session scratch).
func AppendSlot(dst []byte, key, ver uint64, val []byte, flags uint32) ([]byte, error) {
	if len(val) > ValCap {
		return dst, fmt.Errorf("%w: %d > %d", ErrValueTooLong, len(val), ValCap)
	}
	dst, b := grow(dst, SlotSize)
	binary.LittleEndian.PutUint64(b[slotKeyOff:], key)
	binary.LittleEndian.PutUint64(b[slotVerOff:], ver)
	binary.LittleEndian.PutUint32(b[slotLenOff:], uint32(len(val)))
	binary.LittleEndian.PutUint32(b[slotFlgOff:], flags)
	copy(b[slotValOff:], val)
	return dst, nil
}

// grow extends dst by n zero bytes and returns the new slice and its
// n-byte tail.
func grow(dst []byte, n int) (all, tail []byte) {
	dst = append(dst, make([]byte, n)...)
	return dst, dst[len(dst)-n:]
}

// DecodeSlot parses a slot image. The value slice aliases b.
func DecodeSlot(b []byte) Slot {
	n := binary.LittleEndian.Uint32(b[slotLenOff:])
	if n > ValCap {
		n = ValCap
	}
	return Slot{
		Key:   binary.LittleEndian.Uint64(b[slotKeyOff:]),
		Ver:   binary.LittleEndian.Uint64(b[slotVerOff:]),
		Flags: binary.LittleEndian.Uint32(b[slotFlgOff:]),
		Val:   b[slotValOff : slotValOff+int(n)],
	}
}

// ValueFor is the deterministic value function: every write of (key,
// version) carries exactly these bytes, so any auditor — the end-of-run
// audit, a Get's self-check — can recompute the expected value from the
// slot header alone and detect a misapplied or torn write without
// keeping a log.
func ValueFor(key, ver uint64) []byte { return appendValue(nil, key, ver) }

// appendValue appends ValueFor(key, ver) to dst.
func appendValue(dst []byte, key, ver uint64) []byte {
	n := 8 + int((key^ver)%(ValCap-8+1))
	x := key*0x9E3779B97F4A7C15 + ver*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	return appendMix(dst, n, x)
}

// appendMix appends n bytes of the splitmix64 stream seeded by x: full
// avalanche per 8-byte block.
func appendMix(dst []byte, n int, x uint64) []byte {
	dst, out := grow(dst, n)
	for i := 0; i < n; i += 8 {
		z := x + uint64(i)*0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		var blk [8]byte
		binary.LittleEndian.PutUint64(blk[:], z)
		copy(out[i:], blk[:])
	}
	return dst
}

// Layout is the cluster's shard map: pure arithmetic shared by client
// and servers, never serialized, never stale.
type Layout struct {
	Shards  int    // number of shards == number of servers
	NumKeys uint64 // keys are 1..NumKeys (0 is reserved for empty slots)
}

// ShardOf returns the shard owning key.
func (l Layout) ShardOf(key uint64) int { return int(key % uint64(l.Shards)) }

// SlotIndex returns the key's slot within its shard's table.
func (l Layout) SlotIndex(key uint64) int { return int(key / uint64(l.Shards)) }

// SlotsPerShard returns the table length every shard allocates.
func (l Layout) SlotsPerShard() int { return int(l.NumKeys)/l.Shards + 1 }

// ShardBytes returns one shard table's size in bytes.
func (l Layout) ShardBytes() int { return l.SlotsPerShard() * SlotSize }

// PrimaryServer returns the server index holding the shard's primary.
func (l Layout) PrimaryServer(shard int) int { return shard }

// BackupServer returns the server index holding the shard's backup.
func (l Layout) BackupServer(shard int) int { return (shard + 1) % l.Shards }

// SlotAddr computes a key's slot address inside a table at base.
func (l Layout) SlotAddr(base hostmem.Addr, key uint64) hostmem.Addr {
	return base + hostmem.Addr(l.SlotIndex(key)*SlotSize)
}
