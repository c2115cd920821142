package crc

import "testing"

// bitwise64 is the definitional reflected CRC64: one bit at a time, no
// tables, with the same pre-/post-inversion convention as Update64. The
// slicing-by-8 fast path must match it exactly.
func bitwise64(poly uint64, data []byte) uint64 {
	crc := ^uint64(0)
	for _, b := range data {
		crc ^= uint64(b)
		for i := 0; i < 8; i++ {
			if crc&1 == 1 {
				crc = (crc >> 1) ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// bitwise32 is the definitional reflected CRC32.
func bitwise32(poly uint32, data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			if crc&1 == 1 {
				crc = (crc >> 1) ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// pattern returns n bytes of a fixed non-repeating-looking sequence.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*73 + 11)
	}
	return b
}

// FuzzCRCSlicingEquivalence pins the three CRC implementations to each
// other on arbitrary input: the bitwise reference, the byte-at-a-time
// table walk (Update with a freshly built table, which cannot take a
// fast path), and the fast paths behind Checksum64 (slicing-by-8) and
// Checksum32 (hash/crc32, vectorised from 64 B up where the CPU allows).
// Streaming in two chunks at every split point must also agree — both
// fast paths handle an unaligned head and a short tail separately, so
// splits and odd offsets are where an indexing bug would hide.
func FuzzCRCSlicingEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte("123456789"))
	// One MTU payload and one consistency-kernel object: long enough for
	// the vector loop to run many iterations.
	for _, n := range []int{64, 1408, 4096} {
		f.Add(pattern(n))
	}
	// Every alignment of the vector path's head against its 16 B lanes.
	buf := pattern(256)
	for off := 0; off < 16; off++ {
		f.Add(buf[off:])
	}
	genericTab64 := MakeTable64(Poly64)
	genericTab32 := MakeTable32(Poly32)
	f.Fuzz(func(t *testing.T, data []byte) {
		want64 := bitwise64(Poly64, data)
		if got := Checksum64(data); got != want64 {
			t.Fatalf("Checksum64 (slicing) = %#x, bitwise reference = %#x", got, want64)
		}
		if got := Update64(0, genericTab64, data); got != want64 {
			t.Fatalf("Update64 (generic table) = %#x, bitwise reference = %#x", got, want64)
		}
		want32 := bitwise32(Poly32, data)
		if got := Checksum32(data); got != want32 {
			t.Fatalf("Checksum32 (slicing) = %#x, bitwise reference = %#x", got, want32)
		}
		if got := Update32(0, genericTab32, data); got != want32 {
			t.Fatalf("Update32 (generic table) = %#x, bitwise reference = %#x", got, want32)
		}
		// The fuzz engine hands over freshly allocated (aligned) input, so
		// shift the start through one 16 B lane by hand.
		for off := 1; off < 16 && off <= len(data); off++ {
			if got, want := Checksum32(data[off:]), bitwise32(Poly32, data[off:]); got != want {
				t.Fatalf("Checksum32 at offset %d = %#x, bitwise reference = %#x", off, got, want)
			}
		}
		// Streaming equivalence across split points, via the Digest64
		// wrapper and Update32 on the package table (both stay on their
		// fast path across the boundary). Exhaustive on short inputs;
		// spot-checked on long ones to keep the fuzz loop fast.
		splits := len(data)
		if splits > 128 {
			splits = 128
		}
		check := func(k int) {
			d := NewDigest64()
			d.Write(data[:k])
			d.Write(data[k:])
			if d.Sum64() != want64 {
				t.Fatalf("Digest64 split at %d = %#x, want %#x", k, d.Sum64(), want64)
			}
			if got := Update32(Update32(0, ieeeTable, data[:k]), ieeeTable, data[k:]); got != want32 {
				t.Fatalf("Update32 split at %d = %#x, want %#x", k, got, want32)
			}
		}
		for k := 0; k <= splits; k++ {
			check(k)
		}
		if len(data) > 128 {
			check(len(data) / 2)
			check(len(data) - 1)
		}
	})
}
