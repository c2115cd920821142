package crc

import (
	"hash/crc64"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChecksum64MatchesStdlib(t *testing.T) {
	ref := crc64.MakeTable(crc64.ECMA)
	cases := [][]byte{
		nil,
		{},
		{0},
		{0xFF},
		[]byte("hello, strom"),
		[]byte("123456789"),
	}
	for _, c := range cases {
		if got, want := Checksum64(c), crc64.Checksum(c, ref); got != want {
			t.Errorf("Checksum64(%q) = %x, want %x", c, got, want)
		}
	}
}

func TestChecksum64Property(t *testing.T) {
	ref := crc64.MakeTable(crc64.ECMA)
	f := func(data []byte) bool {
		return Checksum64(data) == crc64.Checksum(data, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestChecksum32KnownAnswer is the CRC-32/ISO-HDLC check value: an
// anchor outside both this package and the standard library.
func TestChecksum32KnownAnswer(t *testing.T) {
	if got := Checksum32([]byte("123456789")); got != 0xCBF43926 {
		t.Errorf("Checksum32(\"123456789\") = %#x, want 0xCBF43926", got)
	}
}

// TestChecksum32Property holds the fast path (now the standard library)
// and the byte-at-a-time walk on a fresh table to the bitwise reference.
func TestChecksum32Property(t *testing.T) {
	generic := MakeTable32(Poly32)
	f := func(data []byte) bool {
		want := bitwise32(Poly32, data)
		return Checksum32(data) == want && Update32(0, generic, data) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUpdate64Incremental(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4096)
	rng.Read(data)
	whole := Checksum64(data)
	tab := MakeTable64(Poly64)
	// Feeding in arbitrary chunks must give the same result.
	for _, chunk := range []int{1, 7, 64, 1000} {
		crc := uint64(0)
		for i := 0; i < len(data); i += chunk {
			end := i + chunk
			if end > len(data) {
				end = len(data)
			}
			crc = Update64(crc, tab, data[i:end])
		}
		if crc != whole {
			t.Errorf("chunk %d: %x != %x", chunk, crc, whole)
		}
	}
}

func TestDigest64Streaming(t *testing.T) {
	d := NewDigest64()
	if _, err := d.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Sum64(), Checksum64([]byte("hello world")); got != want {
		t.Errorf("streaming = %x, want %x", got, want)
	}
	d.Reset()
	if d.Sum64() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestSingleBitErrorDetection64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 256)
	rng.Read(data)
	orig := Checksum64(data)
	for i := 0; i < 100; i++ {
		pos := rng.Intn(len(data))
		bit := byte(1) << rng.Intn(8)
		data[pos] ^= bit
		if Checksum64(data) == orig {
			t.Fatalf("single-bit flip at byte %d undetected", pos)
		}
		data[pos] ^= bit
	}
}

func TestSingleBitErrorDetection32(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 1500)
	rng.Read(data)
	orig := Checksum32(data)
	for i := 0; i < 100; i++ {
		pos := rng.Intn(len(data))
		bit := byte(1) << rng.Intn(8)
		data[pos] ^= bit
		if Checksum32(data) == orig {
			t.Fatalf("single-bit flip at byte %d undetected", pos)
		}
		data[pos] ^= bit
	}
}

func BenchmarkChecksum64_4KB(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(4)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Checksum64(data)
	}
}

func BenchmarkChecksum32_1500B(b *testing.B) {
	data := make([]byte, 1500)
	rand.New(rand.NewSource(5)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Checksum32(data)
	}
}
