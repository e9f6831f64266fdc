package linear

// This file is the Keys mirror of the linear-octree primitives: the same
// algorithms over SoA slices of packed octant.Key values.  The packed-key
// balance and traversal hot paths sort, search and window key slices
// directly — one or two word compares per element instead of the struct
// comparator — and materialize coordinates only at tree boundaries.

import (
	"fmt"
	"slices"

	"repro/internal/octant"
)

// SortKeys sorts keys in Morton order (ancestors first) in place.  Large
// slices take the in-place MSD radix path (RadixSortKeys); small ones use
// insertion sort.  Both orders are bit-identical to a comparison sort on
// octant.KeyCompare.
func SortKeys(keys []octant.Key) {
	RadixSortKeys(keys)
}

// IsSortedKeys reports whether keys is in strictly increasing Morton
// order (no duplicates).
func IsSortedKeys(keys []octant.Key) bool {
	for i := 0; i+1 < len(keys); i++ {
		if octant.KeyCompare(keys[i], keys[i+1]) >= 0 {
			return false
		}
	}
	return true
}

// IsLinearKeys reports whether keys is a linear octree: sorted,
// duplicate-free, and free of overlaps.
func IsLinearKeys(keys []octant.Key) bool {
	for i := 0; i+1 < len(keys); i++ {
		if octant.KeyCompare(keys[i], keys[i+1]) >= 0 {
			return false
		}
		if keys[i].IsAncestor(keys[i+1]) {
			return false
		}
	}
	return true
}

// LinearizeKeys removes overlaps from a sorted key slice, keeping the
// finest octants, and removes duplicates.  The input must be sorted; the
// output reuses the input's backing array.
func LinearizeKeys(keys []octant.Key) []octant.Key {
	if len(keys) == 0 {
		return keys
	}
	out := keys[:0]
	for i := 0; i+1 < len(keys); i++ {
		if keys[i].IsAncestorOrEqual(keys[i+1]) {
			continue
		}
		out = append(out, keys[i])
	}
	return append(out, keys[len(keys)-1])
}

// LowerBoundKeys returns the first index i such that keys[i] >= k in
// Morton order, or len(keys) if no such element exists.  keys must be
// sorted.
func LowerBoundKeys(keys []octant.Key, k octant.Key) int {
	i, _ := slices.BinarySearchFunc(keys, k, octant.KeyCompare)
	return i
}

// ContainsKeys reports whether sorted keys contains exactly k.
func ContainsKeys(keys []octant.Key, k octant.Key) bool {
	i := LowerBoundKeys(keys, k)
	return i < len(keys) && keys[i] == k
}

// OverlapRangeKeys returns the half-open index range [lo, hi) of elements
// of the sorted linear slice keys that overlap octant q (descendants-or-
// equal of q, or a single ancestor of q).
func OverlapRangeKeys(keys []octant.Key, q octant.Key) (lo, hi int) {
	lo = LowerBoundKeys(keys, q)
	if lo > 0 && keys[lo-1].IsAncestor(q) {
		return lo - 1, lo
	}
	last := q.LastDescendant(octant.MaxLevel)
	pos, found := slices.BinarySearchFunc(keys, last, octant.KeyCompare)
	hi = pos
	if found {
		hi++
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// DescendantRangeKeys returns the half-open index range [lo, hi) of the
// elements of the sorted slice keys that are descendants-or-equal of q.
// Unlike OverlapRangeKeys it never widens the result to an ancestor of q,
// which makes it the windowing primitive of the recursive traversal engine
// (internal/traverse): the leaf window of a virtual tree node is exactly the
// descendant range of that node's octant.
func DescendantRangeKeys(keys []octant.Key, q octant.Key) (lo, hi int) {
	lo = LowerBoundKeys(keys, q)
	last := q.LastDescendant(octant.MaxLevel)
	pos, found := slices.BinarySearchFunc(keys, last, octant.KeyCompare)
	hi = pos
	if found {
		hi++
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// CompleteKeys fills the gaps of the sorted linear slice keys with the
// coarsest possible octants so that the result is a complete linear
// octree of root.  Every element must be a descendant-or-equal of root.
// The result is allocated once, at its exact length.
func CompleteKeys(root octant.Key, keys []octant.Key) []octant.Key {
	out := make([]octant.Key, 0, completionLen(root, keys))
	return appendCompletionKeys(out, root, keys)
}

// completionLen returns the number of leaves of the completion of keys in
// root.  A complete tree with I interior nodes has 1 + (2^d-1)*I leaves,
// and the interior nodes are the proper ancestors of the keys inside root:
// each key adds those strictly below its nearest common ancestor with its
// predecessor, which the predecessor already counted; the first key adds
// them all, root included.
func completionLen(root octant.Key, keys []octant.Key) int {
	interior := 0
	for i, k := range keys {
		counted := root.Level() - 1
		if i > 0 {
			counted = octant.NearestCommonAncestorKeys(keys[i-1], k).Level()
		}
		interior += int(k.Level()-counted) - 1
	}
	return 1 + (octant.NumChildren(int(root.Dim()))-1)*interior
}

func appendCompletionKeys(out []octant.Key, w octant.Key, sub []octant.Key) []octant.Key {
	if len(sub) == 0 {
		return append(out, w)
	}
	if sub[0] == w {
		if len(sub) > 1 {
			panic(fmt.Sprintf("linear: CompleteKeys input not linear: %v overlaps %v", w, sub[1]))
		}
		return append(out, w)
	}
	n := octant.NumChildren(int(w.Dim()))
	j := 0
	for c := 0; c < n; c++ {
		ch := w.Child(c)
		k := j
		for k < len(sub) && ch.IsAncestorOrEqual(sub[k]) {
			k++
		}
		out = appendCompletionKeys(out, ch, sub[j:k])
		j = k
	}
	if j != len(sub) {
		panic(fmt.Sprintf("linear: CompleteKeys input octant %v not contained in %v", sub[j], w))
	}
	return out
}

// ReduceKeys removes preclusion-redundant octants from a sorted linear
// key slice (Figure 8), returning the sorted 0-sibling representatives.
func ReduceKeys(keys []octant.Key) []octant.Key {
	if len(keys) == 0 {
		return nil
	}
	r := make([]octant.Key, 0, len(keys)/2+1)
	r = append(r, keys[0].Sibling(0))
	for j := 1; j < len(keys); j++ {
		s := keys[j].Sibling(0)
		last := r[len(r)-1]
		switch {
		case octant.KeyPrecluded(last, s):
			r[len(r)-1] = s
		case !octant.KeyPrecludedEqual(s, last):
			r = append(r, s)
		}
	}
	return r
}

// PrecludingMemberKeys searches the sorted reduced slice r for an element
// t with t ⪯ s, using a single binary search (Section III-B).
func PrecludingMemberKeys(r []octant.Key, s octant.Key) (int, bool) {
	i := LowerBoundKeys(r, s)
	if i < len(r) && octant.KeyPrecludedEqual(r[i], s) {
		return i, true
	}
	if i > 0 && octant.KeyPrecludedEqual(r[i-1], s) {
		return i - 1, true
	}
	return -1, false
}
