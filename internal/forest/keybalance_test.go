package forest

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/comm"
	"repro/internal/octant"
	"repro/internal/otest"
)

// TestKeyLocalBalanceBitIdentical pins the balanced forest, serial and
// pooled, leaf for leaf to the serial oracle (RefBalance) of the gathered
// input.
func TestKeyLocalBalanceBitIdentical(t *testing.T) {
	conn := NewBrick(3, 2, 1, 1, [3]bool{})
	const p, k = 3, 3
	build := func(c *comm.Comm, f *Forest) {
		f.Refine(c, 4, fractalRefine(4))
		f.Partition(c, nil)
	}
	want := RefBalance(conn, gather(conn, runForest(t, conn, p, 1, build)), k)
	for _, workers := range []int{1, 3} {
		got := gather(conn, runForest(t, conn, p, 1, func(c *comm.Comm, f *Forest) {
			build(c, f)
			f.Workers = workers
			f.Balance(c, k, BalanceOptions{})
		}))
		if !forestsEqual(got, want) {
			t.Fatalf("workers %d: balanced forest differs from RefBalance of the input", workers)
		}
	}
}

// randomChunks builds contiguous sorted leaf ranges by walking a refined
// tree, mirroring what Balance hands to the Local phase.
func randomChunks(rng *rand.Rand, dim, depth, chunks int) [][]octant.Octant {
	leaves := []octant.Octant{octant.Root(dim)}
	for d := 0; d < depth; d++ {
		var next []octant.Octant
		for _, o := range leaves {
			if rng.Intn(3) != 0 {
				for c := 0; c < octant.NumChildren(dim); c++ {
					next = append(next, o.Child(c))
				}
			} else {
				next = append(next, o)
			}
		}
		leaves = next
	}
	out := make([][]octant.Octant, 0, chunks)
	per := len(leaves)/chunks + 1
	for i := 0; i < len(leaves); i += per {
		end := i + per
		if end > len(leaves) {
			end = len(leaves)
		}
		out = append(out, append([]octant.Octant(nil), leaves[i:end]...))
	}
	return out
}

// TestBalanceChunksKeysMatchesStruct pins the key Local balance, run on a
// 4-worker pool, chunk for chunk to the struct oracle built inline:
// balance.SubtreeNew on the chunk's nearest common ancestor, clipped by the
// per-octant filter.
func TestBalanceChunksKeysMatchesStruct(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dim := range []int{2, 3} {
		for trial := 0; trial < 5; trial++ {
			a := randomChunks(rng, dim, 5, 7)
			b := make([][]octant.Key, len(a))
			for i := range a {
				b[i] = octant.AppendKeys(nil, a[i])
			}
			parallelFor(4, len(b), func(i int) {
				b[i] = localBalanceChunkKeys(b[i], dim)
			})
			for i, ch := range a {
				first, last := ch[0], ch[len(ch)-1]
				want := ch
				if len(ch) > 1 {
					nca := octant.NearestCommonAncestor(first, last)
					want = clipToRange(balance.SubtreeNew(nca, ch, dim), first, last)
				}
				if !otest.Equal(octant.AppendOctants(nil, b[i]), want) {
					t.Fatalf("dim %d chunk %d: %d key leaves, struct oracle %d", dim, i, len(b[i]), len(want))
				}
			}
		}
	}
}

// TestClipToRangeKeysMatchesFilter pins the two binary searches of
// clipToRangeKeys to the per-octant filter of the struct path (clipToRange)
// on random complete trees and random (first, last) leaf pairs taken from a
// second, differently refined tree of the same root — so the range ends
// fall on, inside and around the leaves being clipped.
func TestClipToRangeKeysMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, dim := range []int{2, 3} {
		for _, root := range []octant.Octant{octant.Root(dim), octant.Root(dim).Child(2).Child(1)} {
			for trial := 0; trial < 200; trial++ {
				tree := otest.RandomComplete(rng, root, int(root.Level)+4, 0.7)
				ends := otest.RandomComplete(rng, root, int(root.Level)+5, 0.7)
				i, j := rng.Intn(len(ends)), rng.Intn(len(ends))
				if i > j {
					i, j = j, i
				}
				first, last := ends[i], ends[j]

				want := clipToRange(append([]octant.Octant(nil), tree...), first, last)
				got := clipToRangeKeys(octant.AppendKeys(nil, tree), octant.KeyOf(first), octant.KeyOf(last))
				if !otest.Equal(octant.AppendOctants(nil, got), want) {
					t.Fatalf("dim %d root %v trial %d: range [%v, %v] of %d leaves: got %d keys, filter keeps %d",
						dim, root, trial, first, last, len(tree), len(got), len(want))
				}
			}
		}
	}
}

// TestKeyListWireByteIdentity pins the key-list codec byte for byte to the
// octant encoders it wraps — appendOctants under v0, a dim header plus
// wireEnc under v1 — including out-of-root octants, and round-trips the
// decode.
func TestKeyListWireByteIdentity(t *testing.T) {
	structList := func(octs []octant.Octant, dim int, codec WireCodec) []byte {
		if codec != WireV1 {
			return appendOctants(nil, octs)
		}
		e := wireEnc{b: []byte{byte(dim)}, codec: codec, dim: int8(dim)}
		e.count(len(octs))
		for _, o := range octs {
			e.oct(o)
		}
		return e.b
	}
	rng := rand.New(rand.NewSource(33))
	for _, dim := range []int{2, 3} {
		for _, codec := range []WireCodec{WireV0, WireV1} {
			for trial := 0; trial < 10; trial++ {
				var octs []octant.Octant
				for i := 0; i < 50; i++ {
					l := int8(1 + rng.Intn(6))
					h := octant.Len(l)
					o := octant.Octant{Level: l, Dim: int8(dim)}
					o.X = (int32(rng.Int63n(int64(octant.RootLen))) &^ (h - 1)) - octant.RootLen*int32(rng.Intn(2))
					o.Y = int32(rng.Int63n(int64(octant.RootLen))) &^ (h - 1)
					if dim == 3 {
						o.Z = int32(rng.Int63n(int64(octant.RootLen))) &^ (h - 1)
					}
					octs = append(octs, o)
				}
				wantB := structList(octs, dim, codec)
				gotB := EncodeKeyList(nil, octant.AppendKeys(nil, octs), codec)
				if !bytes.Equal(wantB, gotB) {
					t.Fatalf("dim %d codec %v: EncodeKeyList bytes differ from the octant encoder", dim, codec)
				}
				dec, off, err := DecodeKeyList(wantB, codec)
				if err != nil {
					t.Fatalf("dim %d codec %v: DecodeKeyList: %v", dim, codec, err)
				}
				if off != len(wantB) || !otest.Equal(octant.AppendOctants(nil, dec), octs) {
					t.Fatalf("dim %d codec %v: decoded %d keys over %d of %d bytes, input has %d",
						dim, codec, len(dec), off, len(wantB), len(octs))
				}
			}
			// Empty lists must agree too (v1 writes a default dim byte).
			if !bytes.Equal(structList(nil, 2, codec), EncodeKeyList(nil, nil, codec)) {
				t.Fatalf("codec %v: empty key list bytes differ", codec)
			}
		}
	}
}
