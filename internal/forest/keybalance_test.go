package forest

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/octant"
	"repro/internal/otest"
)

// runSmallBalance executes a small multi-rank balance and returns each
// rank's final chunks.
func runSmallBalance(t *testing.T, opt BalanceOptions) [][]TreeChunk {
	t.Helper()
	conn := NewBrick(3, 2, 1, 1, [3]bool{})
	const p = 3
	out := make([][]TreeChunk, p)
	w := comm.NewWorld(p)
	defer w.Close()
	w.Run(func(c *comm.Comm) {
		f := NewUniform(conn, c, 1)
		f.Refine(c, 4, fractalRefine(4))
		f.Partition(c, nil)
		f.Balance(c, 3, opt)
		out[c.Rank()] = f.Local
	})
	return out
}

// TestKeyLocalBalanceBitIdentical pins the default key-resident path to
// the struct oracle pipeline chunk-for-chunk, serial and pooled.
func TestKeyLocalBalanceBitIdentical(t *testing.T) {
	for _, workers := range []int{0, 3} {
		want := runSmallBalance(t, BalanceOptions{Workers: workers, StructLocal: true})
		got := runSmallBalance(t, BalanceOptions{Workers: workers})
		for r := range want {
			if len(got[r]) != len(want[r]) {
				t.Fatalf("workers %d rank %d: %d chunks vs %d", workers, r, len(got[r]), len(want[r]))
			}
			for ci := range want[r] {
				g, w := got[r][ci], want[r][ci]
				if g.Tree != w.Tree || len(g.Leaves) != len(w.Leaves) {
					t.Fatalf("workers %d rank %d chunk %d: shape mismatch", workers, r, ci)
				}
				for i := range w.Leaves {
					if g.Leaves[i] != w.Leaves[i] {
						t.Fatalf("workers %d rank %d chunk %d leaf %d: %v != %v",
							workers, r, ci, i, g.Leaves[i], w.Leaves[i])
					}
				}
			}
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

func TestBalanceChunksKeysMatchesStruct(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dim := range []int{2, 3} {
		for trial := 0; trial < 5; trial++ {
			a := randomChunks(rng, dim, 5, 7)
			b := make([][]octant.Key, len(a))
			for i := range a {
				b[i] = octant.AppendKeys(nil, a[i])
			}
			BalanceChunks(a, dim, AlgoNew, 4)
			BalanceChunksKeys(b, dim, 4)
			for i := range a {
				if len(a[i]) != len(b[i]) {
					t.Fatalf("dim %d chunk %d: %d vs %d leaves", dim, i, len(a[i]), len(b[i]))
				}
				for j := range a[i] {
					if a[i][j] != b[i][j].Octant() {
						t.Fatalf("dim %d chunk %d leaf %d: %v != %v", dim, i, j, a[i][j], b[i][j].Octant())
					}
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

// TestKeyListWireByteIdentity pins the key-list codec to the octant-list
// codec byte for byte under both wire versions, including out-of-root
// octants, and round-trips the decode both ways.
func TestKeyListWireByteIdentity(t *testing.T) {
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
				keys := octant.AppendKeys(nil, octs)

				wantB := EncodeOctantList(nil, octs, codec)
				gotB := EncodeKeyList(nil, keys, codec)
				if !bytes.Equal(wantB, gotB) {
					t.Fatalf("dim %d codec %v: EncodeKeyList bytes differ from EncodeOctantList", dim, codec)
				}

				decK, offK, err := DecodeKeyList(wantB, codec)
				if err != nil {
					t.Fatalf("dim %d codec %v: DecodeKeyList: %v", dim, codec, err)
				}
				decO, offO, err := DecodeOctantList(gotB, codec)
				if err != nil {
					t.Fatalf("dim %d codec %v: DecodeOctantList: %v", dim, codec, err)
				}
				if offK != offO || len(decK) != len(decO) {
					t.Fatalf("dim %d codec %v: decode shapes differ", dim, codec)
				}
				for i := range decK {
					if decK[i].Octant() != decO[i] || decO[i] != octs[i] {
						t.Fatalf("dim %d codec %v: decode %d: %v vs %v vs input %v",
							dim, codec, i, decK[i].Octant(), decO[i], octs[i])
					}
				}
			}
			// Empty lists must agree too (v1 writes a default dim byte).
			if !bytes.Equal(EncodeOctantList(nil, nil, codec), EncodeKeyList(nil, nil, codec)) {
				t.Fatalf("codec %v: empty key list bytes differ", codec)
			}
		}
	}
}
