// Package crc implements the checksums StRoM uses in hardware: the CRC64
// used by the consistency kernel (§6.3) and the CRC32 used for the RoCE
// ICRC trailer.
//
// The two are deliberately not symmetric. The ICRC is a pipeline stage
// that costs the NIC nothing, so the simulator should not pay for it
// either: CRC32 on the IEEE polynomial delegates to hash/crc32, which
// uses the carry-less-multiply or CRC32 instructions where the CPU has
// them. CRC64 is written from scratch (table-driven, reflected,
// slicing-by-8, as an RTL implementation would unroll it) and stays
// that way: the paper's footnote 8 notes that CRC64 is inherently
// sequential on a CPU (no SIMD, no CRC64 instruction) — the standard
// library has no faster ECMA path either — which is why offloading it
// to the NIC pipeline is profitable; the FPGA computes it at line rate,
// one data word per cycle. The tests pin both to a bitwise reference.
package crc

import "hash/crc32"

// Polynomials, in reflected (LSB-first) form.
const (
	// Poly64 is the ECMA-182 polynomial used by the consistency kernel
	// (the same one as hash/crc64.ECMA).
	Poly64 = 0xC96C5795D7870F42
	// Poly32 is the IEEE 802.3 polynomial used by the RoCE v2 ICRC.
	Poly32 = 0xEDB88320
)

// Table64 is a precomputed lookup table for a reflected CRC64.
type Table64 [256]uint64

// MakeTable64 builds the lookup table for the given reflected polynomial.
func MakeTable64(poly uint64) *Table64 {
	var t Table64
	for i := 0; i < 256; i++ {
		crc := uint64(i)
		for j := 0; j < 8; j++ {
			if crc&1 == 1 {
				crc = (crc >> 1) ^ poly
			} else {
				crc >>= 1
			}
		}
		t[i] = crc
	}
	return &t
}

// Table32 is a precomputed lookup table for a reflected CRC32.
type Table32 [256]uint32

// MakeTable32 builds the lookup table for the given reflected polynomial.
func MakeTable32(poly uint32) *Table32 {
	var t Table32
	for i := 0; i < 256; i++ {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 == 1 {
				crc = (crc >> 1) ^ poly
			} else {
				crc >>= 1
			}
		}
		t[i] = crc
	}
	return &t
}

var (
	ecmaTable = MakeTable64(Poly64)
	ieeeTable = MakeTable32(Poly32)

	// Slicing-by-8 extension of the ECMA table. Table k advances the CRC
	// past k additional zero bytes, which lets the update loop consume
	// eight input bytes per iteration — the software analogue of the
	// 8-bytes-per-cycle unrolling an RTL pipeline would use. The result is
	// bit-identical to the byte-at-a-time loop (the tests compare both
	// against the bitwise reference).
	ecmaSlicing = makeSlicing64(ecmaTable)
)

func makeSlicing64(base *Table64) *[8]Table64 {
	var t [8]Table64
	t[0] = *base
	for i := 0; i < 256; i++ {
		crc := t[0][i]
		for j := 1; j < 8; j++ {
			crc = t[0][byte(crc)] ^ (crc >> 8)
			t[j][i] = crc
		}
	}
	return &t
}

// Update64 continues a CRC64 over data. Start with crc == 0.
func Update64(crc uint64, t *Table64, data []byte) uint64 {
	if t == ecmaTable {
		return update64Slicing(crc, ecmaSlicing, data)
	}
	crc = ^crc
	for _, b := range data {
		crc = t[byte(crc)^b] ^ (crc >> 8)
	}
	return ^crc
}

func update64Slicing(crc uint64, t *[8]Table64, data []byte) uint64 {
	crc = ^crc
	for len(data) >= 8 {
		crc ^= uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16 | uint64(data[3])<<24 |
			uint64(data[4])<<32 | uint64(data[5])<<40 | uint64(data[6])<<48 | uint64(data[7])<<56
		crc = t[7][byte(crc)] ^ t[6][byte(crc>>8)] ^ t[5][byte(crc>>16)] ^ t[4][byte(crc>>24)] ^
			t[3][byte(crc>>32)] ^ t[2][byte(crc>>40)] ^ t[1][byte(crc>>48)] ^ t[0][crc>>56]
		data = data[8:]
	}
	for _, b := range data {
		crc = t[0][byte(crc)^b] ^ (crc >> 8)
	}
	return ^crc
}

// Checksum64 computes the ECMA CRC64 of data.
func Checksum64(data []byte) uint64 { return Update64(0, ecmaTable, data) }

// Append64 continues an ECMA CRC64 over data: Append64(Checksum64(a), b)
// is Checksum64 of a followed by b.
func Append64(sum uint64, data []byte) uint64 { return Update64(sum, ecmaTable, data) }

// Update32 continues a CRC32 over data. Start with crc == 0. The package
// IEEE table (the ICRC) takes the standard library's hardware path;
// any other table walks byte at a time.
func Update32(crc uint32, t *Table32, data []byte) uint32 {
	if t == ieeeTable {
		return crc32.Update(crc, crc32.IEEETable, data)
	}
	crc = ^crc
	for _, b := range data {
		crc = t[byte(crc)^b] ^ (crc >> 8)
	}
	return ^crc
}

// Checksum32 computes the IEEE CRC32 of data (the ICRC algorithm).
func Checksum32(data []byte) uint32 { return Update32(0, ieeeTable, data) }

// Digest64 is a streaming CRC64, mirroring how the consistency kernel
// consumes a DMA data stream word by word.
type Digest64 struct {
	crc uint64
	tab *Table64
}

// NewDigest64 returns a streaming ECMA CRC64.
func NewDigest64() *Digest64 { return &Digest64{tab: ecmaTable} }

// Write absorbs data; it never fails.
func (d *Digest64) Write(p []byte) (int, error) {
	d.crc = Update64(d.crc, d.tab, p)
	return len(p), nil
}

// Sum64 returns the current checksum.
func (d *Digest64) Sum64() uint64 { return d.crc }
