package traverse

// The traversal engine, on packed Morton keys: windows are split with the
// integer-compare lower bound (linear.LowerBoundKeysBatch), so descending a
// node costs a handful of 128-bit compares instead of per-digit coordinate
// inspection.

import (
	"repro/internal/linear"
	"repro/internal/octant"
)

// VisitKeys is the node callback of SearchKeys.  w is the current node of
// the implicit octree and leaves[lo:hi] (of the slice given to SearchKeys)
// is the window of stored leaves inside w; the window is never empty.
// isLeaf reports that w itself is a stored leaf (then hi == lo+1 and
// leaves[lo] == w).  Returning false prunes the subtree: none of the
// window's leaves are visited.  The return value of a leaf call is ignored.
type VisitKeys func(w octant.Key, lo, hi int, isLeaf bool) bool

// SearchKeys descends the implicit octree of the sorted linear key array
// leaves below root, invoking visit on every node it does not prune.  Empty
// subtrees (no stored leaf in the window) are skipped without a callback.
// Leaves outside root are ignored.  st may be nil.
func SearchKeys(root octant.Key, leaves []octant.Key, visit VisitKeys, st *Stats) {
	if st == nil {
		st = new(Stats)
	}
	lo, hi := linear.DescendantRangeKeys(leaves, root)
	if lo >= hi {
		return
	}
	searchNodeKeys(root, leaves, lo, hi, visit, st)
}

// searchNodeKeys handles one node with a non-empty window leaves[lo:hi].
func searchNodeKeys(w octant.Key, leaves []octant.Key, lo, hi int, visit VisitKeys, st *Stats) {
	if hi-lo == 1 && leaves[lo] == w {
		st.Leaves++
		visit(w, lo, hi, true)
		return
	}
	st.Nodes++
	if !visit(w, lo, hi, false) {
		st.Pruned++
		return
	}
	descendKeys(w, leaves, lo, hi, func(c octant.Key, clo, chi int) {
		searchNodeKeys(c, leaves, clo, chi, visit, st)
	})
}

// descendKeys splits the window leaves[lo:hi] of node w among w's children
// and invokes fn for each child with a non-empty window.  All elements of
// the window must be strict descendants of w (the caller has ruled out the
// leaf-equal case), so the child windows partition [lo, hi).  The child fan
// is materialized once (octant.KeyChildren) and the window boundaries come
// from one batched lower-bound pass whose searches shrink left to right
// (descendants of child ci precede child ci+1 on the ancestors-first
// curve), so splitting a node costs a handful of two-word compares with no
// comparator closures.
func descendKeys(w octant.Key, leaves []octant.Key, lo, hi int, fn func(c octant.Key, clo, chi int)) {
	var kids [8]octant.Key
	n := octant.KeyChildren(w, &kids)
	var bounds [8]int
	linear.LowerBoundKeysBatch(leaves[lo:hi], kids[1:n], bounds[1:n])
	bounds[0] = 0
	clo := lo
	for ci := 0; ci < n; ci++ {
		chi := hi
		if ci+1 < n {
			chi = lo + bounds[ci+1]
		}
		if chi > clo {
			fn(kids[ci], clo, chi)
		}
		clo = chi
	}
}

// SplitTasksKeys splits the implicit octree below root into independent
// subtree windows suitable for fanning one traversal over a worker pool: it
// descends — without invoking any callback — until tasks hold at most
// ceil(n/maxTasks) leaves each or cannot be split further, and returns them
// in curve order.  maxTasks < 2 (or an empty window) yields at most one
// task covering everything.  Descending past a node the serial traversal
// would have pruned only costs the workers a cheap re-test at each task
// root; it never changes what a sound prune-callback lets through, so
// callers get identical output at every task count.
func SplitTasksKeys(root octant.Key, leaves []octant.Key, maxTasks int) []TaskKeys {
	lo, hi := linear.DescendantRangeKeys(leaves, root)
	if lo >= hi {
		return nil
	}
	if maxTasks < 2 {
		return []TaskKeys{{Root: root, Lo: lo, Hi: hi}}
	}
	per := (hi - lo + maxTasks - 1) / maxTasks
	if per < 1 {
		per = 1
	}
	var out []TaskKeys
	var split func(w octant.Key, lo, hi int)
	split = func(w octant.Key, lo, hi int) {
		if hi-lo <= per || (hi-lo == 1 && leaves[lo] == w) {
			out = append(out, TaskKeys{Root: w, Lo: lo, Hi: hi})
			return
		}
		descendKeys(w, leaves, lo, hi, func(c octant.Key, clo, chi int) {
			split(c, clo, chi)
		})
	}
	split(root, lo, hi)
	return out
}

// TaskKeys is one disjoint subtree of a traversal frontier: the window
// leaves[Lo:Hi) below Root.  Tasks of one SplitTasksKeys call partition the
// root's leaf window in curve order.
type TaskKeys struct {
	Root   octant.Key
	Lo, Hi int
}

// SearchBoundaryKeys simultaneously walks the implicit octree of leaves and
// a set of query boxes: a subtree is descended only while at least one box
// intersects its octant, so subtrees provably far from every query region
// — in the balance and ghost use, far from any partition boundary — are
// pruned wholesale instead of being tested leaf by leaf.  match is invoked
// for every (stored leaf, box) pair that intersects, in curve order of the
// leaves and ascending box order per leaf, which makes the call sequence
// deterministic.  Each visited node is unpacked once for the
// box-intersection filter — pruning keeps that set small — while windows,
// descent and leaf identity stay on two-word key compares.  st may be nil.
func SearchBoundaryKeys(root octant.Key, leaves []octant.Key, boxes []Box, match Match, st *Stats) {
	if st == nil {
		st = new(Stats)
	}
	lo, hi := linear.DescendantRangeKeys(leaves, root)
	if lo >= hi || len(boxes) == 0 {
		return
	}
	// The active-box stack is sized by the boxes that meet root, not by
	// all of them: a task root below a large box set often meets few or
	// none, and then prunes without allocating.
	ro := root.Octant()
	n := 0
	for i := range boxes {
		if boxes[i].IntersectsOctant(ro) {
			n++
		}
	}
	if n == 0 {
		st.Pruned++
		return
	}
	d := &dualKeys{leaves: leaves, boxes: boxes, match: match, st: st}
	d.active = make([]int32, 0, 2*n+16)
	for i := range boxes {
		if boxes[i].IntersectsOctant(ro) {
			d.active = append(d.active, int32(i))
		}
	}
	d.walk(root, lo, hi, 0, n)
}

// dualKeys carries the state of one simultaneous traversal.  The active-box
// index sets of the recursion live stacked in one shared slice, so the
// whole walk performs no per-node allocation beyond occasional stack
// growth.
type dualKeys struct {
	leaves []octant.Key
	boxes  []Box
	active []int32 // stack of active box index frames
	match  Match
	st     *Stats
}

// walk handles node w with leaf window [lo, hi) and the active box indices
// active[alo:ahi] (those that intersected w's parent): it pushes a new
// frame holding the subset that also intersects w.
func (d *dualKeys) walk(w octant.Key, lo, hi, alo, ahi int) {
	n0 := len(d.active)
	wo := w.Octant()
	for _, qi := range d.active[alo:ahi] {
		if d.boxes[qi].IntersectsOctant(wo) {
			d.active = append(d.active, qi)
		}
	}
	n1 := len(d.active)
	if n1 == n0 {
		d.st.Pruned++
		d.active = d.active[:n0]
		return
	}
	if hi-lo == 1 && d.leaves[lo] == w {
		d.st.Leaves++
		for _, qi := range d.active[n0:n1] {
			d.match(lo, int(qi))
		}
		d.active = d.active[:n0]
		return
	}
	d.st.Nodes++
	descendKeys(w, d.leaves, lo, hi, func(c octant.Key, clo, chi int) {
		d.walk(c, clo, chi, n0, n1)
	})
	d.active = d.active[:n0]
}
