package forest

import (
	"testing"

	"repro/internal/octant"
)

// alignCoord snaps a coordinate onto the anchor grid of an octant at the
// given level, the invariant every real octant satisfies and the v1 codec
// requires (it transmits coordinates in anchor-grid units).
func alignCoord(v int32, level int8) int32 {
	s := coordShift(level)
	return v &^ int32((1<<s)-1)
}

// fuzzOctantList derives a well-formed octant list (shared dim, aligned
// coordinates, zero Z in 2D) from raw fuzz inputs.
func fuzzOctantList(x, y, z int32, level int8, threeD bool, n uint8) []octant.Octant {
	dim := int8(2)
	if threeD {
		dim = 3
	}
	octs := make([]octant.Octant, int(n)%17)
	for i := range octs {
		l := level + int8(i%3)
		o := octant.Octant{
			X:     alignCoord(x+int32(i)<<10, l),
			Y:     alignCoord(y-int32(i)<<14, l),
			Level: l,
			Dim:   dim,
		}
		if dim == 3 {
			o.Z = alignCoord(z+int32(i), l)
		}
		octs[i] = o
	}
	return octs
}

// FuzzWireCodecV1 asserts the compact delta-Morton encoding and the
// fixed-width legacy encoding describe exactly the same octant lists: both
// round-trips must reproduce the input, including negative (out-of-root)
// coordinates, deepest-level octants and mixed-level runs with sign-flipping
// deltas.  The CI fuzz job auto-discovers this target.
func FuzzWireCodecV1(f *testing.F) {
	f.Add(int32(0), int32(0), int32(0), int8(0), false, uint8(4))
	f.Add(int32(1<<29), int32(-1<<29), int32(1<<20), int8(octant.MaxLevel), true, uint8(16))
	f.Add(int32(-1<<30), int32(1<<30), int32(-4096), int8(5), true, uint8(9))
	f.Add(int32(7<<20), int32(3<<20), int32(0), int8(10), false, uint8(12))
	f.Add(int32(-64), int32(64), int32(128), int8(octant.MaxLevel-1), true, uint8(3))
	f.Fuzz(func(t *testing.T, x, y, z int32, level int8, threeD bool, n uint8) {
		if level < 0 || level > octant.MaxLevel-2 {
			level = 0 // keep level+2 in range so alignment stays meaningful
		}
		octs := fuzzOctantList(x, y, z, level, threeD, n)
		keys := octant.AppendKeys(nil, octs)
		for _, codec := range []WireCodec{WireV0, WireV1} {
			b := EncodeKeyList([]byte{0xa5}, keys, codec) // non-empty prefix
			got, off, err := DecodeKeyList(b[1:], codec)
			if err != nil {
				t.Fatalf("%v: decode: %v", codec, err)
			}
			if off != len(b)-1 {
				t.Fatalf("%v: decode consumed %d of %d bytes", codec, off, len(b)-1)
			}
			if len(got) != len(octs) {
				t.Fatalf("%v: %d octants -> %d", codec, len(octs), len(got))
			}
			for i := range octs {
				if got[i].Octant() != octs[i] {
					t.Fatalf("%v: octant %d: %+v -> %+v", codec, i, octs[i], got[i].Octant())
				}
			}
		}
	})
}

// TestWireCodecV1RejectsTruncation decodes every strict prefix of a valid
// compact encoding: each must fail with an error — never a panic, never a
// bogus success — because payloads cross the (simulated) process boundary.
func TestWireCodecV1RejectsTruncation(t *testing.T) {
	keys := octant.AppendKeys(nil, fuzzOctantList(1<<28, -1<<27, 1<<20, 3, true, 16))
	full := EncodeKeyList(nil, keys, WireV1)
	for i := 0; i < len(full); i++ {
		if _, _, err := DecodeKeyList(full[:i], WireV1); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(full))
		}
	}
}

// TestWireCodecV1RejectsMalformed covers the non-truncation corruption
// classes: a garbage dim header, a count exceeding the payload, and a delta
// that would push a coordinate outside int32 range.
func TestWireCodecV1RejectsMalformed(t *testing.T) {
	if _, _, err := DecodeKeyList([]byte{7, 0}, WireV1); err == nil {
		t.Error("dim 7 accepted")
	}
	// Count 1000 with no octant bytes behind it.
	b := EncodeKeyList(nil, nil, WireV1)[:1] // dim header only
	b = append(b, 0xe8, 0x07)                // uvarint 1000
	if _, _, err := DecodeKeyList(b, WireV1); err == nil {
		t.Error("overlong count accepted")
	}
	// A level-0 octant whose X delta overflows int32 when scaled back up.
	b = EncodeKeyList(nil, nil, WireV1)[:1]
	b = append(b, 1)                            // count 1
	b = append(b, 0)                            // level 0
	b = append(b, 0x84, 0x80, 0x80, 0x80, 0x20) // zigzag varint 2^33
	b = append(b, 0, 0)                         // y, z deltas
	if _, _, err := DecodeKeyList(b, WireV1); err == nil {
		t.Error("out-of-range coordinate delta accepted")
	}
}

// TestWireCodecV1Compression pins the tentpole's headline claim at the
// codec level: on a sorted fractal-style leaf set — the shape every balance
// payload has — the compact encoding must be at least 2x smaller than the
// fixed 16-byte format.
func TestWireCodecV1Compression(t *testing.T) {
	var octs []octant.Octant
	const level = 6
	side := int32(1) << (octant.MaxLevel - level)
	for i := int32(0); i < 32; i++ {
		for j := int32(0); j < 32; j++ {
			octs = append(octs, octant.Octant{X: i * side, Y: j * side, Level: level, Dim: 2})
		}
	}
	keys := octant.AppendKeys(nil, octs)
	v0 := len(EncodeKeyList(nil, keys, WireV0))
	v1 := len(EncodeKeyList(nil, keys, WireV1))
	if v1*2 > v0 {
		t.Fatalf("v1 encodes %d octants in %d bytes, v0 in %d — less than 2x smaller", len(octs), v1, v0)
	}
}
