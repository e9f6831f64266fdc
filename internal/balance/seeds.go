package balance

import (
	"slices"

	"repro/internal/linear"
	"repro/internal/octant"
)

// This file implements the seed-octant construction of Section IV: a remote
// octant o is replaced, as a response to a query octant r, by a small set of
// seed octants inside r from which the receiver reconstructs the overlap
// S = Tk(o) ∩ r by running a subtree balance rooted at r (Figure 9).  The
// work to build the seeds is O(1) and the work to reconstruct S is
// proportional to |S| — in particular, independent of the distance between
// o and r, eliminating the auxiliary-octant construction of the old
// algorithm (Figure 4b).

// Seeds returns seed octants for the influence of octant o on region r
// under the k-balance condition, and whether o causes any split inside r
// at all.  If o does not split r (the overlap of Tk(o) with r is r itself,
// or o is not coarser than r's interior demands), it returns (nil, false).
//
// All seeds are leaves of Tk(o) contained in r.  For k = d their count is
// O(3^(d-1)) as shown in the paper (our candidate set is the full coarse
// neighborhood of a clipped to r, a constant-size superset of the paper's,
// which keeps the construction O(1) while simplifying the boundary-portion
// analysis).  For k < d the 3^d ring around the parent of every ancestor of
// a down to two levels below r is seeded as well, O(3^d · level gap) seeds
// in all: a's ring alone misses leaves of Tk(o) in 3D.
//
// o and r must be non-overlapping octants of the same dimension.
func Seeds(o, r octant.Octant, k int) ([]octant.Octant, bool) {
	seeds, splits := AppendSeeds(nil, o, r, k)
	if !splits {
		return nil, false
	}
	linear.Sort(seeds)
	return slices.Compact(seeds), true
}

// AppendSeeds is the seed kernel behind Seeds for callers that answer many
// (o, r) pairs: it appends the seeds of o within r to dst — unsorted, and
// possibly repeating one another — and allocates nothing beyond growing dst.
// A responder unions the seeds of all octants influencing r and sorts and
// deduplicates once.  Tk(o) = Tk(s) for every sibling s of o (DeltaBar is
// sibling-invariant), so one call per sibling family suffices.
func AppendSeeds(dst []octant.Octant, o, r octant.Octant, k int) ([]octant.Octant, bool) {
	if o.Overlaps(r) {
		panic("balance: Seeds requires non-overlapping octants")
	}
	if r.Level >= o.Level {
		// r is as fine as o or finer: the leaf of Tk(o) covering r is
		// at least as coarse as o, hence at least as coarse as r.
		return dst, false
	}
	a := ClosestBalancedAncestor(r, o, k)
	if a == r {
		return dst, false
	}
	dst = append(dst, a)
	// s ranges over the coarse neighborhood N(a) (the 3^d ring around a's
	// parent) clipped to r; where s is unbalanced with o, the true leaf of
	// Tk(o) there is finer than s, and (like a) is a seed.  Under k < d the
	// chain of Tk(o) can turn through more than k axes at once, so the ring
	// of every coarser ancestor of a, down to two levels below r, is seeded
	// too: a's ring alone misses leaves of Tk(o) in 3D.
	for b := a; b.Level >= r.Level+2; b = b.Parent() {
		p := b.Parent()
		for _, d := range octant.Directions(int(o.Dim), int(o.Dim)) {
			s := p.Neighbor(d)
			if !r.IsAncestor(s) {
				continue // outside r (or as coarse as r)
			}
			if t := ClosestBalancedAncestor(s, o, k); t != s {
				dst = append(dst, t)
			}
		}
		if k == int(o.Dim) {
			break
		}
	}
	return dst, true
}

// TkOverlap reconstructs S = Tk(o) ∩ r from scratch: it computes the seeds
// of o within r and completes them to the coarsest k-balanced subtree of r,
// exactly as the receiver of a seed response does in the Local rebalance
// phase.  If o does not split r, the result is the single octant r.
func TkOverlap(o, r octant.Octant, k int) []octant.Octant {
	seeds, splits := Seeds(o, r, k)
	if !splits {
		return []octant.Octant{r}
	}
	return SubtreeNew(r, seeds, k)
}
