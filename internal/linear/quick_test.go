package linear

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/octant"
	"repro/internal/otest"
)

// Property-based tests (testing/quick) on the core linear-octree invariants.

func TestQuickReduceCompleteRoundTrip(t *testing.T) {
	f := func(seed int64, dimSel bool, depth uint8) bool {
		dim := 2
		if dimSel {
			dim = 3
		}
		maxL := 2 + int(depth%4)
		rng := rand.New(rand.NewSource(seed))
		root := octant.Root(dim)
		complete := otest.RandomComplete(rng, root, maxL, 0.6)
		r := Reduce(complete)
		return otest.Equal(Complete(root, r), complete)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLinearizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		octs := make([]octant.Octant, 100)
		for i := range octs {
			octs[i] = otest.RandomOctant(rng, 2, 0, 7)
		}
		Sort(octs)
		once := append([]octant.Octant(nil), Linearize(octs)...)
		twice := Linearize(append([]octant.Octant(nil), once...))
		return IsLinear(once) && otest.Equal(once, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompleteContainsInputsAsLeaves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := octant.Root(3)
		complete := otest.RandomComplete(rng, root, 4, 0.5)
		sub := otest.RandomSubset(rng, complete, 0.3)
		out := Complete(root, sub)
		if !IsComplete(root, out) || !IsLinear(out) {
			return false
		}
		for _, s := range sub {
			if !Contains(out, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOverlapRangeVolume(t *testing.T) {
	// The overlap range of a query octant over a complete octree covers
	// exactly the query's volume.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := octant.Root(2)
		complete := otest.RandomComplete(rng, root, 5, 0.6)
		q := otest.RandomOctant(rng, 2, 0, 5)
		lo, hi := OverlapRange(complete, q)
		if hi == lo+1 && complete[lo].IsAncestorOrEqual(q) {
			return true // covered by a single coarser leaf
		}
		var vol uint64
		for _, o := range complete[lo:hi] {
			vol += uint64(1) << (2 * uint(octant.MaxLevel-int(o.Level)))
		}
		want := uint64(1) << (2 * uint(octant.MaxLevel-int(q.Level)))
		return vol == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
