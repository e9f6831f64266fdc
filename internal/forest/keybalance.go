package forest

import (
	"slices"

	"repro/internal/balance"
	"repro/internal/octant"
)

// This file is the Local balance (phase 1) of the paper's new algorithm: a
// chunk's resident keys go through balance.SubtreeNewKeys (Reduce, closure
// over the distinct sibling families of each coarse neighborhood on one
// flat key set, sort, completion allocated at its exact size) and come back
// clipped to the chunk's curve range by two binary searches, with no
// conversion at either end.

// localBalanceChunkKeys balances one rank's contiguous leaf range of a
// tree: the subtree spanned by the range is balanced and the result clipped
// back to the range (Section III).
func localBalanceChunkKeys(leaves []octant.Key, k int) []octant.Key {
	if len(leaves) <= 1 {
		return leaves
	}
	sub := octant.NearestCommonAncestorKeys(leaves[0], leaves[len(leaves)-1])
	bal := balance.SubtreeNewKeys(sub, leaves, k)
	return clipToRangeKeys(bal, leaves[0], leaves[len(leaves)-1])
}

// clipToRangeKeys keeps the keys lying within the curve range spanned by
// the original first and last leaves.  keys is a sorted linear octree, so
// first and last descendants both increase along it and the kept keys are
// one contiguous run, found by two binary searches.
func clipToRangeKeys(keys []octant.Key, first, last octant.Key) []octant.Key {
	fd := first.FirstDescendant(octant.MaxLevel)
	ld := last.LastDescendant(octant.MaxLevel)
	lo, _ := slices.BinarySearchFunc(keys, fd, func(o, t octant.Key) int {
		return octant.KeyCompare(o.FirstDescendant(octant.MaxLevel), t)
	})
	hi, found := slices.BinarySearchFunc(keys, ld, func(o, t octant.Key) int {
		return octant.KeyCompare(o.LastDescendant(octant.MaxLevel), t)
	})
	if found {
		hi++
	}
	if hi < lo {
		return keys[:0]
	}
	return keys[lo:hi]
}
