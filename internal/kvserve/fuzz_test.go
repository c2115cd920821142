package kvserve

import (
	"bytes"
	"testing"
)

// FuzzExtentCodec asserts the extent frame's torn-read contract on
// arbitrary inputs: DecodeExtent never panics, every encodable
// (key, ver, value) round-trips clean, and any single-bit flip anywhere
// in the 128-byte image decodes as torn — CRC64 detects all single-bit
// errors, so this is a hard guarantee, not a probabilistic one. The
// spill ref that points at the extent round-trips alongside it.
func FuzzExtentCodec(f *testing.F) {
	f.Add(uint64(1), uint64(1), []byte(nil), uint(0))
	f.Add(uint64(4), uint64(2), LargeValueFor(4, 2), uint(300))
	f.Add(uint64(1)<<63, uint64(12345), bytes.Repeat([]byte{0xA5}, LargeValCap), uint(1023))
	f.Fuzz(func(t *testing.T, key, ver uint64, val []byte, flip uint) {
		img, err := AppendExtent(nil, key, ver, val)
		if err != nil {
			if len(val) <= LargeValCap {
				t.Fatalf("encode rejected a %d-byte value: %v", len(val), err)
			}
			return // over cap: only the rejection is asserted
		}
		if len(img) != ExtentSize {
			t.Fatalf("encoded %d bytes, want %d", len(img), ExtentSize)
		}
		ext := DecodeExtent(img)
		if ext.Torn || ext.Key != key || ext.Ver != ver || !bytes.Equal(ext.Val, val) {
			t.Fatalf("round trip = %+v, want key=%d ver=%d %d B", ext, key, ver, len(val))
		}
		// A spill ref for this extent must round-trip whenever the value
		// is genuinely large (spill refs reject inline-sized lengths).
		if len(val) > ValCap {
			off := int(flip%64) * ExtentSize
			o, n, ok := DecodeSpillRef(AppendSpillRef(nil, off, len(val)))
			if !ok || o != off || n != len(val) {
				t.Fatalf("spill ref round trip = %d, %d, %v", o, n, ok)
			}
		}
		// Any single-bit corruption must read as torn.
		bit := flip % (ExtentSize * 8)
		img[bit/8] ^= 1 << (bit % 8)
		if got := DecodeExtent(img); !got.Torn {
			t.Fatalf("bit %d flipped but extent decoded clean: %+v", bit, got)
		}
	})
}
