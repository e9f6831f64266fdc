// Package traverse implements recursive top-down traversals over linear
// octrees: the search and simultaneous-traversal primitives of Isaac,
// Burstedde, Wilcox & Ghattas, "Recursive Algorithms for Distributed
// Forests of Octrees" (2014) and Holke, Knapp & Burstedde, "An Optimized,
// Parallel Computation of the Ghost Layer" (2019).
//
// A sorted linear leaf array implicitly encodes the full octree: the
// subtree below any octant w corresponds to the contiguous window of leaves
// that are descendants-or-equal of w (linear.DescendantRangeKeys).
// Descending that implicit tree and windowing the slice per virtual node
// lets a caller prune whole subtrees with one test instead of inspecting
// every leaf — which turns the per-element neighbor searches of ghost
// construction and balance query matching into boundary-proportional work.
package traverse

import "repro/internal/octant"

// Stats counts the work one traversal performed.  On meshes where most of
// the curve is far from any region of interest, Nodes+Leaves stays well
// below the total leaf count — that is the whole point of the recursive
// formulation, and the property the test suite pins.
type Stats struct {
	// Nodes is the number of virtual (non-leaf) nodes the traversal
	// invoked its callback on.
	Nodes int
	// Leaves is the number of stored leaves the traversal reached.
	Leaves int
	// Pruned is the number of subtrees with a non-empty leaf window that
	// were skipped without visiting their interior.
	Pruned int
}

// Merge accumulates t into s; used to combine per-task stats after a
// traversal was fanned over a worker pool.
func (s *Stats) Merge(t Stats) {
	s.Nodes += t.Nodes
	s.Leaves += t.Leaves
	s.Pruned += t.Pruned
}

// Visited returns the total number of tree nodes (virtual and leaf) the
// traversal touched.
func (s Stats) Visited() int { return s.Nodes + s.Leaves }

// Box is an axis-aligned box on the octant lattice with half-open per-axis
// extents [Lo, Hi).  Extents are int64 so boxes around out-of-root octants
// (which arise for every cross-tree query region) cannot overflow.  Axes
// beyond the octant dimension are ignored by the intersection tests.
type Box struct {
	Lo, Hi [3]int64
}

// OctantBox returns the box covering exactly o's cube.
func OctantBox(o octant.Octant) Box {
	var b Box
	h := int64(o.Len())
	for i := 0; i < int(o.Dim); i++ {
		c := int64(o.Coord(i))
		b.Lo[i], b.Hi[i] = c, c+h
	}
	return b
}

// InsulationBox returns the box of o's insulation layer I(o): o grown by
// its own side length in every direction, the 3^d cube of Section II-B of
// the balance paper.  A leaf can influence the balance of o only if it
// intersects this box.
func InsulationBox(o octant.Octant) Box {
	var b Box
	h := int64(o.Len())
	for i := 0; i < int(o.Dim); i++ {
		c := int64(o.Coord(i))
		b.Lo[i], b.Hi[i] = c-h, c+2*h
	}
	return b
}

// IntersectsOctant reports whether the box and o's cube intersect in a set
// of positive volume.
func (b Box) IntersectsOctant(o octant.Octant) bool {
	h := int64(o.Len())
	for i := 0; i < int(o.Dim); i++ {
		c := int64(o.Coord(i))
		if c+h <= b.Lo[i] || c >= b.Hi[i] {
			return false
		}
	}
	return true
}

// Match is the leaf callback of SearchBoundaryKeys: leaf index li (into the
// slice given to the traversal) intersects box qi.
type Match func(li, qi int)
