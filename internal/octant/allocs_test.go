package octant_test

import (
	"testing"

	"repro/internal/octant"
	"repro/internal/otest"
)

// TestKeyKernelsZeroAllocs pins the packed-key kernels the balance, ghost
// and traversal hot paths run on — Morton encode and decode, the successor
// carry and the insulation-grid neighbor fan — to zero allocations over the
// canned fractal chunk.  The chunk comes from otest, which imports octant,
// so this test lives in the external test package.
func TestKeyKernelsZeroAllocs(t *testing.T) {
	const dim = 3
	leaves := otest.CannedLeaves(t, dim, 4)
	keys := octant.AppendKeys(nil, leaves)
	root := octant.KeyOf(octant.Root(dim))
	var succ []octant.Key // keys with a successor at their level
	for _, k := range keys {
		if k != root.LastDescendant(k.Level()) {
			succ = append(succ, k)
		}
	}
	if len(succ) == 0 {
		t.Fatal("no canned key has a successor at its level")
	}
	dirs := octant.Directions(dim, dim)
	out := make([]octant.Key, len(dirs))
	var sink uint64
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"MortonKeyEncode", func() {
			for _, o := range leaves {
				sink += octant.KeyOf(o).Lo
			}
		}},
		{"MortonKeyDecode", func() {
			for _, k := range keys {
				sink += uint64(k.Octant().X)
			}
		}},
		{"KeyCarry3", func() {
			for _, k := range succ {
				sink += k.Successor().Lo
			}
		}},
		{"KeyBatchNeighbors", func() {
			for _, k := range keys {
				octant.KeyNeighbors(k, dirs, out)
				sink += out[0].Lo
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if a := testing.AllocsPerRun(10, c.fn); a != 0 {
				t.Errorf("%d canned keys: %v allocations, want 0", len(keys), a)
			}
		})
	}
	_ = sink
}
