// Package linear implements algorithms on linear octrees: sorted arrays of
// octants in space-filling-curve order.  A linear octree stores only leaves
// (Section II-A of the paper); the algorithms here are the sorting,
// linearization, completion and reduction primitives on which the subtree
// balance algorithms of Section III are built.
package linear

import (
	"fmt"
	"slices"

	"repro/internal/octant"
)

// Sort sorts octs in Morton order (ancestors first) in place.  It uses the
// concrete three-way comparator directly — no reflection-based swapping —
// which roughly halves the cost of the sort-heavy merge paths in the
// balance phases.
func Sort(octs []octant.Octant) {
	slices.SortFunc(octs, octant.Compare)
}

// IsSorted reports whether octs is in strictly increasing Morton order
// (no duplicates).
func IsSorted(octs []octant.Octant) bool {
	for i := 0; i+1 < len(octs); i++ {
		if octant.Compare(octs[i], octs[i+1]) >= 0 {
			return false
		}
	}
	return true
}

// IsLinear reports whether octs is a linear octree: sorted, duplicate-free,
// and free of overlaps (no octant is an ancestor of another).  Because an
// ancestor sorts immediately before its first present descendant, checking
// adjacent pairs suffices on sorted input.
func IsLinear(octs []octant.Octant) bool {
	for i := 0; i+1 < len(octs); i++ {
		if octant.Compare(octs[i], octs[i+1]) >= 0 {
			return false
		}
		if octs[i].IsAncestor(octs[i+1]) {
			return false
		}
	}
	return true
}

// IsComplete reports whether octs is a complete linear octree of root: the
// leaves tile root with no holes.  It assumes octs is linear (see IsLinear)
// and that every octant is a descendant-or-equal of root.
func IsComplete(root octant.Octant, octs []octant.Octant) bool {
	if len(octs) == 0 {
		return false
	}
	if octs[0] == root {
		return len(octs) == 1
	}
	// The leaves tile root iff the first touches root's first corner, the
	// last touches root's last corner, and each successive pair abuts on
	// the space-filling curve: the successor of octs[i]'s last lattice
	// cell is octs[i+1]'s first lattice cell.
	if octs[0].FirstDescendant(octant.MaxLevel) != root.FirstDescendant(octant.MaxLevel) {
		return false
	}
	if octs[len(octs)-1].LastDescendant(octant.MaxLevel) != root.LastDescendant(octant.MaxLevel) {
		return false
	}
	for i := 0; i+1 < len(octs); i++ {
		last := octs[i].LastDescendant(octant.MaxLevel)
		next := octs[i+1].FirstDescendant(octant.MaxLevel)
		if last.Successor() != next {
			return false
		}
	}
	return true
}

// Linearize removes overlaps from a sorted array of octants, keeping the
// finest octants (the leaves), and removes duplicates.  This is the O(n)
// postprocessing step of the old subtree balance algorithm (Figure 6).  The
// input must be sorted; the output reuses the input's backing array.
func Linearize(octs []octant.Octant) []octant.Octant {
	if len(octs) == 0 {
		return octs
	}
	out := octs[:0]
	for i := 0; i+1 < len(octs); i++ {
		if octs[i].IsAncestorOrEqual(octs[i+1]) {
			continue // dominated by a finer (or equal) successor
		}
		out = append(out, octs[i])
	}
	return append(out, octs[len(octs)-1])
}

// LowerBound returns the first index i such that octs[i] >= o in Morton
// order, or len(octs) if no such element exists.  octs must be sorted.
func LowerBound(octs []octant.Octant, o octant.Octant) int {
	i, _ := slices.BinarySearchFunc(octs, o, octant.Compare)
	return i
}

// Contains reports whether sorted octs contains exactly o.
func Contains(octs []octant.Octant, o octant.Octant) bool {
	i := LowerBound(octs, o)
	return i < len(octs) && octs[i] == o
}

// OverlapRange returns the half-open index range [lo, hi) of elements of the
// sorted linear array octs that overlap octant q (are descendants-or-equal
// of q, or a single ancestor of q).  For a linear array the ancestor case
// yields a range of length one.
func OverlapRange(octs []octant.Octant, q octant.Octant) (lo, hi int) {
	lo = LowerBound(octs, q)
	if lo > 0 && octs[lo-1].IsAncestor(q) {
		return lo - 1, lo
	}
	// First index strictly after q's last descendant.  The array is
	// duplicate-free (linear), so an exact hit advances by exactly one.
	last := q.LastDescendant(octant.MaxLevel)
	pos, found := slices.BinarySearchFunc(octs, last, octant.Compare)
	hi = pos
	if found {
		hi++
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Complete fills the gaps of the sorted linear array octs with the coarsest
// possible octants so that the result is a complete linear octree of root.
// Every element of octs must be a descendant-or-equal of root.  This is the
// Complete postprocessing step of the new subtree balance algorithm
// (Figure 7).  It runs in time linear in the size of the output.
func Complete(root octant.Octant, octs []octant.Octant) []octant.Octant {
	out := make([]octant.Octant, 0, len(octs)*2)
	return appendCompletion(out, root, octs)
}

// appendCompletion recursively tiles w with the coarsest leaves that keep
// every octant of sub (all descendants-or-equal of w, sorted, linear) as a
// leaf, appending to out.
func appendCompletion(out []octant.Octant, w octant.Octant, sub []octant.Octant) []octant.Octant {
	if len(sub) == 0 {
		return append(out, w)
	}
	if sub[0] == w {
		if len(sub) > 1 {
			panic(fmt.Sprintf("linear: Complete input not linear: %v overlaps %v", w, sub[1]))
		}
		return append(out, w)
	}
	n := octant.NumChildren(int(w.Dim))
	j := 0
	for c := 0; c < n; c++ {
		ch := w.Child(c)
		k := j
		for k < len(sub) && ch.IsAncestorOrEqual(sub[k]) {
			k++
		}
		out = appendCompletion(out, ch, sub[j:k])
		j = k
	}
	if j != len(sub) {
		panic(fmt.Sprintf("linear: Complete input octant %v not contained in %v", sub[j], w))
	}
	return out
}

// Reduce removes preclusion-redundant octants from a sorted linear array
// (Figure 8): it returns the smallest subset R of 0-sibling representatives
// from which Complete reconstructs the original linear octree.  If octs is
// a complete octree then |R| <= |octs| / 2^d.  The result is sorted.
func Reduce(octs []octant.Octant) []octant.Octant {
	if len(octs) == 0 {
		return nil
	}
	r := make([]octant.Octant, 0, len(octs)/2+1)
	r = append(r, octs[0].Sibling(0))
	for j := 1; j < len(octs); j++ {
		s := octs[j].Sibling(0)
		last := r[len(r)-1]
		switch {
		case octant.Precluded(last, s):
			r[len(r)-1] = s // replace the precluded coarser entry
		case !octant.PrecludedEqual(s, last):
			r = append(r, s)
		}
	}
	return r
}

// PrecludingMember searches the sorted reduced array r for an element t with
// t ⪯ s (t precludes s or is equivalent to it), using a single binary
// search as described in Section III-B.  It returns the index of t and true,
// or -1 and false if no such element exists.
func PrecludingMember(r []octant.Octant, s octant.Octant) (int, bool) {
	i := LowerBound(r, s)
	if i < len(r) && octant.PrecludedEqual(r[i], s) {
		return i, true
	}
	// Only the predecessor can preclude s (see paper Section III-B): any
	// element between a precluding t and s would itself have precluded or
	// been reduced against t.
	if i > 0 && octant.PrecludedEqual(r[i-1], s) {
		return i - 1, true
	}
	return -1, false
}
